(** Topological orderings of a DAG.

    DPipe evaluates candidate pipeline schedules, each derived from one
    topological ordering of the (bipartitioned, root-augmented) Einsum DAG.
    Enumerating every ordering is factorial in the worst case, so the
    enumerator is bounded. *)

val sort : 'a Dag.t -> int list
(** One topological order (Kahn's algorithm, smallest-id-first so the result
    is deterministic).  @raise Invalid_argument on a cyclic graph. *)

val is_valid : 'a Dag.t -> int list -> bool
(** [is_valid g order] checks that [order] is a permutation of the nodes of
    [g] in which every node appears after all of its predecessors. *)

val all : ?limit:int -> 'a Dag.t -> int list list
(** All topological orderings, lexicographically by node id, truncated to at
    most [limit] results (default [256]).  The DPipe DAGs are small (tens of
    nodes) but can still have many orders; the limit keeps enumeration
    tractable while preserving determinism: the lexicographically smallest
    orders are always included. *)

val count_at_most : limit:int -> 'a Dag.t -> int
(** Number of topological orderings, counting stops at [limit]. *)

