(** Speedup-contribution attribution (paper Section 6.1, Eq. 47-48).

    For each per-layer bucket [i] (QKV, MHA, Add&LayerNorm, FFN) the
    speedup is [S_i = T_i_baseline / T_i_transfusion]; the normalised
    contribution weights each [S_i] by the baseline time it applies to:

    [Contribution_i = S_i * T_i_baseline / sum_j (S_j * T_j_baseline)].

    Figure 11 reports these contributions for TransFusion over FuseMax. *)

type entry = {
  kind : Tf_costmodel.Phase.layer_kind;
  baseline_s : float;
  optimized_s : float;
  speedup : float;
  contribution : float;
}

val attribute :
  baseline:Tf_costmodel.Latency.t -> optimized:Tf_costmodel.Latency.t -> entry list
(** One entry per bucket in QKV, MHA, LayerNorm, FFN order.  Buckets with
    zero baseline time get zero contribution.  Contributions sum to 1 when
    any bucket is non-trivial. *)
