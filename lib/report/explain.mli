(** The [transfusion explain] report: one workload's TransFusion
    execution, explained end to end.

    Runs (or is given) a TileSeek tiling, takes the execution that
    TransFusion priced it with ({!Transfusion.Strategies.execution}: the
    fused layer's DPipe schedule at the tiling's [m0]), replays it
    through {!Transfusion.Pipeline_sim.replay_events}, and assembles:

    - which per-layer execution is served — the DPipe schedule, or the
      static layer-sequential execution when that is faster — with both
      makespans,
    - the per-Einsum bottleneck/utilisation {!Rollup} with roofline
      verdicts,
    - the Table 2 buffer occupancy per module against capacity,
    - the search {!Convergence} report (when a search ran),
    - a Perfetto-loadable {!Sim_trace} of the simulated timeline.

    Everything is deterministic for a fixed seed and serialises through
    {!Tf_json} as schema [transfusion.explain/1]. *)

type buffer_row = {
  module_name : string;
  elements : float;  (** Table 2 on-chip requirement for the chosen tiling *)
  fraction : float;  (** over buffer capacity *)
}

type t = {
  arch : Tf_arch.Arch.t;
  workload : Tf_workloads.Workload.t;
  attention : Transfusion.Strategies.attention;
  tiling : Transfusion.Tileseek.config;
  latency_s : float;  (** cost-model whole-model latency under [tiling] *)
  layer : Transfusion.Strategies.layer_choice;
      (** the per-layer execution TransFusion serves under [tiling], with
          both makespans *)
  sched : Transfusion.Dpipe.t;
      (** the DPipe schedule the layer at [tiling]'s [m0] was priced with; with
          [layer.served = `Static] it is the candidate that was not
          served, and [outcome], [events], [rollup] and the trace describe
          that candidate *)
  outcome : Transfusion.Pipeline_sim.outcome;
  events : Transfusion.Pipeline_sim.event list;
  rollup : Rollup.t;
  buffers : buffer_row list;  (** Table 2 order: QKV, MHA, Add+LayerNorm, FFN *)
  capacity_elements : float;
  convergence : Convergence.t option;  (** [None] when the tiling was given *)
}

val of_execution : Transfusion.Strategies.result -> Transfusion.Strategies.execution -> t
(** The report of a TransFusion result and the execution it was priced
    with ([convergence = None]): the path behind [eval --sim-trace] and
    [decode --sim-trace], which read the evaluation they served instead
    of pricing the tiling again.
    @raise Invalid_argument when the result has no tiling or its
    schedule fails to replay. *)

val run :
  iterations:int ->
  seed:int ->
  attention:Transfusion.Strategies.attention ->
  Tf_arch.Arch.t ->
  Tf_workloads.Workload.t ->
  t
(** Search a tiling with {!Transfusion.Strategies.search} (probed) and
    report the tiling, latency, layer choice and schedule of that one
    search, with the {!Convergence} report attached.  The search is the
    one [eval] runs, so at the same seed and budget the reported tiling
    is the served one.  Deterministic for fixed seed. *)

val render : t -> string
(** The human-facing report: workload/tiling header, the served
    execution with both per-layer makespans, schedule summary, rollup
    table, buffer table, convergence summary. *)

val tiling_json : Transfusion.Tileseek.config -> Tf_json.t
(** [{"b", "d", "p", "m1", "m0", "s"}]: the one JSON form of a tiling,
    shared by the eval, explain and generation documents. *)

val to_json : t -> Tf_json.t
(** Schema [transfusion.explain/1] (documented in EXPERIMENTS.md). *)

val trace : t -> Tf_json.t
(** The {!Sim_trace} document of the simulated timeline. *)
