(** Shared plumbing for the paper-figure experiments.

    Every figure in Section 6.2 is a deterministic function of
    (architecture, model, sequence length, strategy); this module provides
    a memoised evaluation cache so the figures share work, plus the
    sweeps, geometric means and table printers they have in common. *)

type cache_key = {
  key_arch : string;  (** {!Transfusion.Strategies.Private.arch_fingerprint} *)
  key_model : Tf_workloads.Model.t;
  key_seq_len : int;
  key_batch : int;
  key_strategy : Transfusion.Strategies.t;
  key_budget : int;  (** TileSeek iteration budget *)
}
(** Structured summary-cache key: every field the evaluation depends
    on, compared structurally.  (An earlier revision concatenated names
    and numbers into one string, which keyed distinct archs by name
    alone and invited separator collisions.) *)

val cache_key :
  tileseek_iterations:int ->
  Tf_arch.Arch.t ->
  Tf_workloads.Workload.t ->
  Transfusion.Strategies.t ->
  cache_key
(** The key {!evaluate} memoises under (exposed for tests). *)

(** Persistence codec for {!cache_key} — how a disk-backed schedule
    store names and describes its entries. *)
module Key : sig
  val to_json : cache_key -> Tf_json.t
  (** Canonical JSON rendering: every field of the key, with the model
      expanded to its full record (name alone does not identify a
      model — ablation variants share names). *)
end

val evaluate :
  ?tileseek_iterations:int ->
  Tf_arch.Arch.t ->
  Tf_workloads.Workload.t ->
  Transfusion.Strategies.t ->
  Transfusion.Strategies.result
(** Memoised {!Transfusion.Strategies.evaluate} (key: architecture, model,
    sequence, batch, strategy, TileSeek budget).  [tileseek_iterations]
    defaults to 200 and is part of the key: evaluations at different
    search budgets never share cache entries.  The cache is domain-safe
    ({!Tf_parallel.Memo}), so sweeps may evaluate points concurrently;
    repeated lookups return the physically identical result.  Every fresh
    result is run through {!Tf_analysis.Verify.strategy_result}, with the
    execution it was priced with, before it is cached; the cache keeps
    the result only.
    @raise Failure when the result's tiling or DPipe schedule fails
    verification — a figure must never be exported from an invalid
    artifact. *)

val evaluate_execution :
  tileseek_iterations:int ->
  Tf_arch.Arch.t ->
  Tf_workloads.Workload.t ->
  Transfusion.Strategies.t ->
  Transfusion.Strategies.result * Transfusion.Strategies.execution option
(** The verified evaluation {!evaluate} memoises, run outside the memo
    and returned with the execution it was priced with (TransFusion
    only): for a caller that caches the answer itself or not at all —
    the daemon's [schedule] op, which keeps the rendered payload in its
    own cache, and the CLI's [eval], whose [--sim-trace] reads the
    execution.  Nothing is cached.
    @raise Failure as {!evaluate}. *)

val reset_cache : unit -> unit
(** Drop every memoised evaluation and the memoised DPipe schedules
    ({!Transfusion.Strategies.reset_registries}) — tests, determinism
    harnesses and daemon cache hygiene. *)

val prime :
  ?tileseek_iterations:int ->
  (Tf_arch.Arch.t * Tf_workloads.Workload.t * Transfusion.Strategies.t) list ->
  unit
(** Evaluate the given sweep points across the {!Tf_parallel} domain
    pool, populating the cache; later (sequential) [evaluate] calls for
    the same points are then hits.  Figure modules prime their whole
    grid first and print from the cache, which parallelises the sweep
    without touching the printed output. *)

val sweep_points :
  ?strategies:Transfusion.Strategies.t list ->
  Tf_arch.Arch.t list ->
  Tf_workloads.Workload.t list ->
  (Tf_arch.Arch.t * Tf_workloads.Workload.t * Transfusion.Strategies.t) list
(** The (arch × workload × strategy) grid, [strategies] defaulting to
    all five, in row-major order. *)

val par_map : ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map over the domain pool (chunk size 1 —
    experiment evaluations are coarse). *)

val par_concat_map : ('a -> 'b list) -> 'a list -> 'b list
(** [List.concat_map] with the mapping fanned out like {!par_map}. *)

val require_clean : string -> Tf_analysis.Diagnostic.t list -> unit
(** Shared sanitizer guard: @raise Failure listing the error diagnostics
    when any are present. *)

val verify_result :
  Transfusion.Strategies.result * Transfusion.Strategies.execution option ->
  Transfusion.Strategies.result
(** {!require_clean} over {!Tf_analysis.Verify.strategy_result}; returns
    the result, without its execution, so call sites can wrap
    {!Transfusion.Strategies.evaluate} inline. *)

val certify_seq_band : Tf_arch.Arch.t list -> Tf_workloads.Model.t -> seqs:int list -> unit
(** Range-certify a figure's whole sequence band before it is swept:
    one {!Tf_analysis.Verify.certify_range} call over [min seqs .. max
    seqs] (grid of lo-multiples) per architecture.  A sweep must not export numbers from a band whose fused
    discipline is not implementable at every bucketed length.
    @raise Failure when certification refuses the band. *)

val seq_sweep : quick:bool -> (string * int) list
(** The paper's 1K-1M sweep; [quick] keeps {1K, 16K, 256K} for tests. *)

val geomean : float list -> float
(** Geometric mean; 1.0 for the empty list.
    @raise Invalid_argument on a non-positive entry. *)

val speedups_over_unfused :
  Tf_arch.Arch.t -> Tf_workloads.Workload.t -> (Transfusion.Strategies.t * float) list
(** Speedup of every strategy relative to Unfused on this workload, each
    {!evaluate}d at the default TileSeek budget. *)

val energy_over_unfused :
  Tf_arch.Arch.t -> Tf_workloads.Workload.t -> (Transfusion.Strategies.t * float) list
(** Normalised energy (Unfused = 1.0), at the default TileSeek budget. *)

val models : Tf_workloads.Model.t list
(** The five benchmark models, paper order. *)

val seq_64k : int

val print_header : string -> unit
(** A boxed section header on stdout. *)

val print_series_table :
  row_label:string ->
  columns:string list ->
  rows:(string * float list) list ->
  unit ->
  unit
(** Fixed-width numeric table printer used by all figures. *)
