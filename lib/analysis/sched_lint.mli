(** Verifier for DPipe schedules ({!Transfusion.Dpipe.t}).

    A schedule is the artifact every latency figure is computed from, so
    it is re-checked from first principles here — independently of the
    DP that produced it.  The checks are the paper's own validity
    conditions (Section 4): completeness of the unrolled instance set,
    per-PE-array mutual exclusion, dependency order across every epoch
    instance, consistency of the reported aggregates, and re-validation
    of the chosen bipartition against the four partition constraints.

    Codes emitted:
    - [E-SCHED-COUNT] — a (node, epoch) instance is missing, duplicated,
      or refers to an unknown node / out-of-range epoch.
    - [E-SCHED-TIME] — an assignment with a negative start or an end
      before its start.
    - [E-SCHED-OVERLAP] — two instances overlap in time on one PE array.
    - [E-SCHED-DEP] — a DAG edge violated: a producer instance ends after
      its same-epoch consumer starts.
    - [E-SCHED-MAKESPAN] — [makespan_cycles] disagrees with the latest
      assignment end.
    - [E-SCHED-INTERVAL] — [steady_interval_cycles] is negative or
      exceeds the unrolled makespan.
    - [E-SCHED-PARTITION] — the recorded bipartition fails the paper's
      four validity constraints (or does not cover the node set).
    - [E-SCHED-PIN] — a statically scheduled instance runs on another
      PE array than its node is pinned to ({!pinned}). *)

val verify : ?name:string -> 'a Tf_dag.Dag.t -> Transfusion.Dpipe.t -> Diagnostic.t list
(** All diagnostics for the schedule of [g].  [name] labels the location
    of every diagnostic (defaults to ["dpipe"]).  An empty list means the
    schedule is valid. *)

val pinned :
  name:string ->
  pin:(int -> Tf_arch.Arch.resource) ->
  'a Tf_dag.Dag.t ->
  Transfusion.Dpipe.t ->
  Diagnostic.t list
(** [E-SCHED-PIN] for every instance of a [`Static pin] schedule of [g]
    that runs off the array [pin] assigns its node (instances of unknown
    nodes are {!verify}'s [E-SCHED-COUNT]).  [name] labels the location. *)
