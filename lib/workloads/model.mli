(** Transformer model shapes.

    The cost of a schedule depends only on tensor shapes, so a model is
    fully described by its dimensions (paper Section 5.2 notation):
    [d_model] = D, [heads] = H, [head_dim] = E = F (the paper assumes
    E = F and D = H*E), [ffn_hidden] = S, plus layer count and the FFN
    activation. *)

type t = {
  name : string;
  d_model : int;  (** D — model (hidden) dimension *)
  heads : int;  (** H — attention heads *)
  head_dim : int;  (** E = F — per-head embedding dimension *)
  ffn_hidden : int;  (** S — FFN intermediate size *)
  layers : int;  (** encoder/decoder stack depth *)
  activation : Tf_einsum.Scalar_op.activation;
}

val v :
  name:string ->
  d_model:int ->
  heads:int ->
  head_dim:int ->
  ffn_hidden:int ->
  layers:int ->
  activation:Tf_einsum.Scalar_op.activation ->
  t
(** @raise Invalid_argument when [d_model <> heads * head_dim] or any
    dimension is non-positive. *)

val pp : t Fmt.t
