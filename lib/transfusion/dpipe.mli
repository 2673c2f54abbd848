(** DPipe: the Einsum pipelining scheduler (paper Section 4).

    DPipe takes the computation DAG of a fused layer tile and produces a
    pipelined schedule over the two PE arrays:

    + enumerate valid bipartitions of the DAG ({!Tf_dag.Partition});
    + for each, enumerate (a bounded set of) topological orders;
    + unroll [k] pipeline epochs, interleaving the second subgraph of
      epoch [e] with the first subgraph of epoch [e+1];
    + run the DP of Eq. 43-46: each operation instance greedily picks the
      PE array giving the earliest completion, respecting dependencies and
      per-array timelines;
    + keep the candidate with the smallest steady-state interval (the
      per-epoch cost once the pipeline is full).

    The scheduler is generic over node loads: callers supply the intrinsic
    compute load of each node (Eq. 40, already scaled by any per-epoch
    repetition) and whether it is matrix work.  [`Dp] mode lets every
    instance choose its array (TransFusion); [`Static assign] pins each
    node to a caller-chosen array while still pipelining — e.g. the
    FuseMax discipline, which keeps per-tile attention work (matmuls and
    partial softmax) on the 2D array and cross-tile state updates on the
    1D array. *)

type assignment = {
  node : int;
  epoch : int;
  resource : Tf_arch.Arch.resource;
  start_cycle : float;
  end_cycle : float;
}

type t = {
  partition : Tf_dag.Partition.t option;
      (** [None] when the DAG admits no valid bipartition (it is then
          scheduled as a single stage). *)
  order : int list;
  assignments : assignment list;
  epochs_unrolled : int;
  makespan_cycles : float;  (** of the unrolled window *)
  steady_interval_cycles : float;  (** per-epoch cost at steady state *)
  useful_2d_per_epoch : float;  (** average intrinsic load per epoch on 2D *)
  useful_1d_per_epoch : float;
}

type plan
(** What DPipe's search reads of a DAG that no load can change, built
    once per DAG by {!plan} (which also makes the emptiness and
    acyclicity checks) and shared by every {!schedule} over it: the
    dense node index and predecessor arrays, the enumerated
    bipartitions with their per-node stage arrays, and the topological
    orders with their dense position arrays.  Immutable, so any number
    of domains may schedule over one plan at once. *)

val plan : 'a Tf_dag.Dag.t -> plan
(** The plan of a DAG: its first 512 bipartitions in
    {!Tf_dag.Partition.enumerate} order (or one unsplit stage when it has
    none) and its first 4 topological orders ({!Tf_dag.Topo.all}).
    @raise Invalid_argument on an empty or cyclic DAG. *)

val schedule :
  ?mode:[ `Dp | `Static of int -> Tf_arch.Arch.resource ] ->
  ?verify:bool ->
  Tf_arch.Arch.t ->
  load:(int -> float) ->
  matrix:(int -> bool) ->
  plan ->
  t
(** The schedule of the plan's DAG under [load] and [matrix].  Only the
    load-dependent work runs per call: the node latencies, the
    stage-imbalance ranking and the candidate DPs.  Scheduling one load
    vector through a shared plan is bit-identical, field for field, to
    scheduling it through a fresh plan of the same DAG.

    The search is bounded by four constants: the plan's bipartitions are
    ranked by stage load balance and the 16 most balanced are
    DP-evaluated, each with the plan's (up to 4) topological orders, over
    a window of 8 unrolled epochs ([epochs_unrolled]).  [mode] defaults
    to [`Dp].

    The (partition × order) candidate grid is evaluated across the
    {!Tf_parallel} domain pool, with branch-and-bound pruning against the
    best steady interval found so far (a candidate whose lower bound —
    remaining minimal busy time spread over both PE arrays — already
    exceeds the incumbent is abandoned mid-DP).  Both are
    result-invariant: the winner is selected by an in-order fold with the
    same strict-improvement predicate as the sequential search, pruning
    only discards provable losers, and the full- and half-unroll
    makespans used for the steady interval come from a single DP pass
    that reproduces the two-run computation exactly.  Results are
    bit-identical whatever [TRANSFUSION_JOBS] is.

    [verify] (default false) is a sanitizer hook: every candidate schedule
    explored during the search is re-validated with {!check} as it is
    produced, not just the winner; pruning is disabled so no candidate
    escapes validation.
    @raise Invalid_argument naming the node when a node's latency on
    either array (its load over the array's effective PEs) is NaN,
    infinite or negative.
    @raise Invalid_argument with [~verify:true] when the DP emits an
    invalid candidate (an internal invariant violation). *)

val total_cycles : t -> epochs:float -> float
(** Estimated cost of running [epochs] pipeline epochs: the unrolled
    makespan plus steady-state intervals beyond the unrolled window
    (linear extrapolation, exact at [epochs = epochs_unrolled]). *)

val sequential_cycles :
  Tf_arch.Arch.t -> load:(int -> float) -> matrix:(int -> bool) -> 'a Tf_dag.Dag.t -> float
(** Non-pipelined reference: every node on its native array, one at a
    time — the per-epoch cost of the Unfused/FLAT execution style. *)

val check : 'a Tf_dag.Dag.t -> t -> (unit, string) result
(** Validate a schedule: every (node, epoch) instance appears exactly
    once, same-epoch dependencies are respected, and no PE array executes
    two instances at once. *)

(** {2 Generic timeline replay} *)

module type TIME = sig
  type t

  val zero : t
  val add : t -> t -> t
  val max : t -> t -> t
end

(** Re-derive a schedule's timeline from its {e structure} alone (feed
    order, per-instance PE array, same-epoch dependency edges) over an
    arbitrary time domain.  [Replay (Float)] with [time] = the DP's own
    node latency reproduces the recorded start/end cycles bit-for-bit —
    pinned by a differential test — while a symbolic domain
    ([Tf_analysis.Symexpr]) yields start/end as functions of the
    sequence length, the basis of range certification
    ([Tf_analysis.Range_cert]). *)
module Replay (T : TIME) : sig
  type instance = {
    node : int;
    epoch : int;
    resource : Tf_arch.Arch.resource;
    start_t : T.t;
    end_t : T.t;
  }

  val replay :
    preds:(int -> int list) ->
    time:(int -> Tf_arch.Arch.resource -> T.t) ->
    t ->
    (instance list * T.t, string) result
  (** Instances in the recorded feed order plus the makespan.  [preds]
      must list same-epoch dependencies in the DAG's order
      ([Tf_dag.Dag.preds]); [time] gives each node's execution time on
      a resource.  [Error] when an instance precedes one of its
      same-epoch dependencies — a structurally invalid schedule. *)
end

(**/**)

(** Testing hooks — not part of the stable API. *)
module Private : sig
  val steady_consistency_check :
    mode:[ `Dp | `Static of int -> Tf_arch.Arch.resource ] ->
    Tf_arch.Arch.t ->
    load:(int -> float) ->
    matrix:(int -> bool) ->
    plan ->
    bool
  (** For every candidate within {!schedule}'s search bounds
      (bipartitions in enumeration order rather than ranked) under
      [mode], check bit for bit that the search's DP run
      and the winner's (the same run, with its assignments read back)
      agree on [(makespan, makespan_half, steady)]; that the single-pass
      (full + half) makespans agree with two independent DP runs; and
      that the recorded timeline replays exactly through [Replay] over
      [float] with [Float.max] and the node latencies. *)
end
