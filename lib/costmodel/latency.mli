(** Latency evaluation of a phase list on an architecture.

    Implements the composition heuristic the paper inherits from Nayak et
    al. (Section 6.1, "Simulation and Modeling Tools"): each phase runs to
    completion; within a phase, DRAM transfers overlap compute through
    double buffering, so the phase costs max(compute, memory); phases are
    summed.  PE-array utilization is useful compute slots divided by the
    array's peak capacity over the whole execution. *)

type phase_result = {
  phase : Phase.t;
  compute_s : float;
  memory_s : float;
  total_s : float;
  bound : [ `Compute | `Memory ];
}

type t = {
  phases : phase_result list;
  total_s : float;
  util_2d : float;
  util_1d : float;
}

val evaluate : Tf_arch.Arch.t -> Phase.t list -> t
(** @raise Invalid_argument on an empty phase list. *)

val compute_seconds : Tf_arch.Arch.t -> Phase.execution -> float
(** Compute half of a phase cost: makespan cycles at the arch clock.
    Depends only on the execution, so search moves that leave the
    schedule untouched can reuse it. *)

val memory_seconds : Tf_arch.Arch.t -> Traffic.t -> float
(** Memory half of a phase cost: DRAM bytes at the arch bandwidth.
    Depends only on the traffic record.  [evaluate] is built on these
    two, so incremental callers score bit-identically to the full model. *)

val phase_seconds : compute_s:float -> memory_s:float -> float
(** The slower half: double buffering overlaps DRAM with compute.  Both
    must be finite and non-negative; there it equals
    [Float.max compute_s memory_s]. *)

val phase_result : Tf_arch.Arch.t -> Phase.t -> phase_result
(** One phase through the model: max of the two halves plus the
    boundedness verdict.  [evaluate arch phases] maps this over the list. *)

val per_kind_seconds : t -> (Phase.layer_kind * float) list
(** Phase time attributed to each per-layer bucket (Figure 11 input):
    phases with [parts] split their time accordingly.  Buckets in a fixed
    order QKV, MHA, LayerNorm, FFN. *)

val pp : t Fmt.t
