(** On-chip buffer requirements per fused-layer tile (paper Table 2 /
    Section 5.2).

    Quantities are in {e elements}; multiply by the element width for
    bytes.  [B] here is the batch slice per tile, [P] the query-sequence
    tile, [M1]*[M0] the key/value sequence held per tile, [P'] the
    intra-tile sequence length processed per PE row.

    These formulas are the feasibility predicate of TileSeek: an outer
    tiling is implementable only when every module's requirement fits the
    on-chip buffer (Section 5.2, last paragraph). *)

type dims = {
  b : int;  (** batch slice per tile *)
  d : int;  (** model-dimension (reduction) slice resident per pass *)
  p : int;  (** query-sequence tile length *)
  m1 : int;  (** key/value outer tiles resident on-chip per pass *)
  m0 : int;  (** inner key/value tile *)
  h : int;  (** heads *)
  e : int;  (** key/query head dim *)
  f : int;  (** value head dim *)
  s : int;  (** FFN-hidden slice resident per pass *)
  p_row : int;  (** P': intra-tile sequence per PE row *)
}

val qkv : dims -> float
(** [B*D*(4P + 3*M1*M0) + 3*D*H*E + 2*B*H*P]. *)

val mha : dims -> float
(** [B*H*E*(P + 2*M1*M0) + B*H*P*(2 + 2F) + 4*M0*P' + 18*P']. *)

val add_layernorm : dims -> float
(** [3*B*H*F*P + 4*H*F*P']. *)

val ffn : dims -> float
(** [H*F*(2*B*P + S) + S*(P + 2) + 2*S*P']. *)

val worst : dims -> float
(** Maximum over the four modules — the capacity a tile actually needs,
    since the fused stack executes the modules one at a time per tile. *)

val fits : buffer_elements:int -> dims -> bool

val kv_cache_tile : dims -> float
(** [B*H*(E+F)*(M0 + 1)]: the extra residency of a decode step whose K/V
    come from a DRAM-backed cache — one in-flight [M0]-tile of K and of V
    (double buffering the cache stream against the attention loop) plus
    the newly appended key/value position. *)

val mha_decode : dims -> float
(** [mha + kv_cache_tile] — the Table-2-style MHA row of a decode step. *)

val worst_decode : dims -> float
(** Like {!worst} with the MHA row replaced by {!mha_decode}. *)

val fits_decode : buffer_elements:int -> dims -> bool

val of_workload :
  ?kv_len:int ->
  Tf_workloads.Workload.t ->
  b:int -> d:int -> p:int -> m1:int -> m0:int -> s:int -> p_row:int -> dims
(** Tile dims for a workload over the TileSeek search space [B,D,M1,P,S]
    (plus the [m0] inner split).  Every field is the {e resident} tile
    factor: [m1*m0] is the key/value slice held per pass, [d] the
    model-dimension slice (QKV weights and input stream in [D/d] passes
    with partial-sum accumulation), [s] the FFN-hidden slice.  [kv_len]
    is the key/value sequence the [m1*m0] slice must divide; it defaults
    to the workload's own sequence and differs from it only for
    cross-attention and decode (KV-cache) evaluations.
    @raise Invalid_argument when a factor does not divide its dimension
    or any size is non-positive. *)

val pp : dims Fmt.t

(** {2 Generic formulas}

    The Table 2 formulas abstracted over the numeric domain: the
    specification of the float API above, and the expression tree a
    symbolic instantiation (the interval/affine domain of
    [Tf_analysis.Symexpr] used by the range certifier) evaluates.  The
    float API is [Gen] at [float] written out, with the same operations
    in the same order, so it is bit-identical to [Gen] instantiated at
    [float] with [Float.max] (a property test pins every function), and
    evaluating a symbolic result at a concrete point reproduces the float
    computation. *)

module type NUM = sig
  type t

  val of_int : int -> t
  val add : t -> t -> t
  val mul : t -> t -> t
  val max : t -> t -> t
end

module Gen (N : NUM) : sig
  type gdims = {
    b : N.t;
    d : N.t;
    p : N.t;
    m1 : N.t;
    m0 : N.t;
    h : N.t;
    e : N.t;
    f : N.t;
    s : N.t;
    p_row : N.t;
  }

  val qkv : gdims -> N.t
  val mha : gdims -> N.t
  val add_layernorm : gdims -> N.t
  val ffn : gdims -> N.t
  val worst : gdims -> N.t
  val kv_cache_tile : gdims -> N.t
  val mha_decode : gdims -> N.t
  val worst_decode : gdims -> N.t
end
