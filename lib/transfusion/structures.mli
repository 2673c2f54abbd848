(** Encoder / decoder / hybrid model structures (paper Section 3.2).

    TransFusion composes and reorders MHA, Add & LayerNorm and FFN by
    their uniform [B,H,F,P] tensor shape, "supporting different model
    structures such as encoders, decoders, or hybrid configurations".
    This module expresses a model as a list of {e sublayers} — each an
    attention flavour plus an optional FFN — replicated [layers] times,
    and evaluates any scheduling strategy over the whole structure.

    A standard decoder layer is two sublayers: masked self-attention
    (without FFN) followed by cross-attention over the encoder output
    (with the FFN).  An encoder-decoder model is the encoder structure
    followed by the decoder structure. *)

type sublayer = { attention : Strategies.attention; include_ffn : bool }

type t = {
  name : string;
  sublayers : sublayer list;  (** executed in order within each layer *)
  layers : int;
}

val encoder : Tf_workloads.Model.t -> t
(** The standard encoder: one self-attention + FFN sublayer in each of
    the model's layers. *)

val decoder : encoder_len:int -> Tf_workloads.Model.t -> t
(** The standard decoder: masked self-attention, then cross-attention
    over an encoder output of [encoder_len] tokens with the FFN. *)

val decoder_only : ?layers:int -> Tf_workloads.Model.t -> t
(** GPT-style stack: masked self-attention + FFN per layer. *)

val encoder_decoder : Tf_workloads.Model.t -> seq_len:int -> t list
(** A T5-style pair: the encoder over [seq_len] tokens and the decoder
    cross-attending to it.  Evaluate each and add. *)

type result = {
  structure : t;
  strategy : Strategies.t;
  latency : Tf_costmodel.Latency.t;
  energy : Tf_costmodel.Energy.breakdown;
  traffic : Tf_costmodel.Traffic.t;
  executions : (sublayer * Strategies.execution) list;
      (** for [Transfusion], each sublayer's priced execution, in order *)
}

val evaluate :
  ?tileseek_iterations:int ->
  Tf_arch.Arch.t ->
  Tf_workloads.Workload.t ->
  t ->
  Strategies.t ->
  result
(** Evaluate a strategy over the structure: phases of every sublayer are
    concatenated and run through the shared latency/energy model. *)

val total_seconds : result list -> float
(** Sum of latencies, e.g. over an encoder-decoder pair. *)
