(** The paper's Einsum Cascades (Sections 2.4 and 3.1).

    Every cascade describes {e one inner computation instance}: the work a
    tile performs once the outer loops (batch [b], outer-sequence tile
    [m1], outer query tile) have fixed its operands.  Recurrent state that
    crosses [m1] iterations (running max / denominator / numerator-V)
    appears as external inputs named [*_prev], breaking the loop-carried
    dependence so each instance is a DAG.

    Index conventions: [p] query positions, [m0] inner key/value positions,
    [d] model dim, [h] heads, [e]/[f] key/value head dims, [s] FFN hidden.

    Extent environments for these cascades bind the {e tile} sizes, not the
    full model dimensions (strategy code multiplies by instance counts). *)

val qkv : unit -> Tf_einsum.Cascade.t
(** Cascade 2 — tiled QKV projections with shared input (Eq. 25-27):
    [Q[h,e,p]], [BK[h,e,m0]], [BV[h,f,m0]] from [INPUT]/[INPUT_KV] and the
    three weight tensors.  Three independent contractions. *)

val mha : unit -> Tf_einsum.Cascade.t
(** Cascade 1 — the 1-pass attention cascade of FuseMax (Eq. 12-23),
    exactly 12 Einsums: BQK, LM, RM, SLN, SLD, SLNV, PRM, SPD, RD, SPNV,
    RNV, AV. *)

val add_layernorm : unit -> Tf_einsum.Cascade.t
(** Cascade 3 — Add & LayerNorm (Eq. 28-36), 9 Einsums: IAV, SAV, MAV,
    DAV, QAV, SQAV, MQAV, SR, NR.  The 1/(H*F) factors are the external
    rank-0 input [INV_HF]; gamma/beta are deferred into the next layer
    (paper follows Li et al.). *)

val ffn : Tf_einsum.Scalar_op.activation -> Tf_einsum.Cascade.t
(** Cascade 4 — FFN (Eq. 37-39) with explicit bias adds: FFN1, FFN1B, AR,
    FFN2, FFN2B. *)

val full_layer : ?include_ffn:bool -> Tf_einsum.Scalar_op.activation -> Tf_einsum.Cascade.t
(** The end-to-end fused layer: concatenation of the four cascades, with
    MHA consuming the QKV outputs, Add&LayerNorm consuming [AV] and the
    residual [INP], and the FFN consuming [NR] (paper Figure 3); without
    the FFN when [include_ffn] is false (default true). *)

val module_of : Tf_einsum.Einsum.t -> Tf_costmodel.Phase.layer_kind
(** Paper Table 2's module of the op: [Qkv] for an op of {!qkv}, [Mha]
    of {!mha}, [Layernorm] of {!add_layernorm}, [Ffn] of {!ffn}.
    @raise Invalid_argument for a name none of them has. *)

val in_attention_loop : Tf_einsum.Einsum.t -> bool
(** An op of the attention loop body: an {!mha} op other than [AV], the
    final normalisation, which runs on the last [m1] iteration only. *)
