(** The headline geometric-mean speedups of Section 6.2.

    The paper reports, over the evaluation sweep: on cloud, TransFusion
    at 1.3x over FuseMax+LayerFuse, 1.6x over FuseMax and 7.0x over FLAT;
    on edge, 1.8x / 2.2x / 3.2x.  This module computes the same geomeans
    from our model (over the Llama3 sequence sweep) so EXPERIMENTS.md can
    record paper-vs-measured, and exposes the ordering invariant the
    reproduction must preserve. *)

type summary = {
  arch : string;
  vs_layerfuse : float;
  vs_fusemax : float;
  vs_flat : float;
  vs_unfused : float;
}

val compute : ?quick:bool -> ?model:Tf_workloads.Model.t -> Tf_arch.Arch.t -> summary
(** Geomean of TransFusion's speedup over each baseline across the
    sequence sweep (default model Llama3). *)

val ordering_holds : ?quick:bool -> ?model:Tf_workloads.Model.t -> Tf_arch.Arch.t -> bool
(** True when, at every sweep point, TransFusion is at least as fast
    (within 1%) as every baseline — the qualitative claim of Figure 8. *)

val to_json : summary -> Tf_json.t
(** [{arch, vs_layerfuse, vs_fusemax, vs_flat, vs_unfused}]. *)

val print : summary -> unit
