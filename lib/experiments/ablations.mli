(** Ablation studies for the design choices DESIGN.md calls out.

    These go beyond the paper's figures: they isolate each mechanism's
    contribution (pipelining mode, tiling search stage, cross-array
    efficiency assumptions, batch size, search objective) on the same
    cost model the figures use. *)

(** DPipe scheduling-mode ablation: for each architecture, the per-epoch
    cost of the MHA and full-layer DAGs under sequential execution,
    statically-pinned pipelining, and the full DP (paper Section 4's
    ladder), at a 64K-token sequence. *)
type dpipe_row = {
  arch : string;
  dag : string;
  sequential : float;  (** cycles per epoch *)
  static_pipelined : float;
  dp : float;
}

val dpipe : Tf_workloads.Model.t -> dpipe_row list
val print_dpipe : dpipe_row list -> unit

(** TileSeek stage ablation: the cost (search objective value) reached by
    the fallback tile, the greedy heuristics, and the full search, at a
    16K-token sequence. *)
type tileseek_row = {
  arch : string;
  fallback_cost : float;
  greedy_cost : float;  (** best greedy variant *)
  search_cost : float;
}

val tileseek : ?iterations:int -> Tf_workloads.Model.t -> tileseek_row list
val print_tileseek : tileseek_row list -> unit

(** Cross-array efficiency sensitivity: TransFusion-over-FuseMax speedup
    as [vector_eff_2d] (cloud) / [matrix_eff_1d] (edge) vary — the two
    knobs that gate DPipe's offloading — at a 64K-token sequence. *)
type sensitivity_row = { arch : string; knob : string; value : float; tf_over_fm : float }

val sensitivity : Tf_workloads.Model.t -> sensitivity_row list
val print_sensitivity : sensitivity_row list -> unit

(** Batch-size study (the paper defers batch tiling to Section 5): TF
    speedup over FuseMax across batch sizes, at a 16K-token sequence. *)
type batch_row = { arch : string; batch : int; tf_over_fm : float; tf_over_unfused : float }

val batch : Tf_workloads.Model.t -> batch_row list
val print_batch : batch_row list -> unit

(** Search-objective study: latency and energy of TransFusion when
    TileSeek rewards latency, energy, or EDP, at a 16K-token sequence. *)
type objective_row = {
  arch : string;
  objective : string;
  latency_s : float;
  energy_j : float;
}

val objectives : Tf_workloads.Model.t -> objective_row list
val print_objectives : objective_row list -> unit
