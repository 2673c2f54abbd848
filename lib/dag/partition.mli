(** Constrained bipartitions of an Einsum DAG (DPipe, paper Section 4.1).

    DPipe splits the computation DAG into two subgraphs [(first, second)]
    that will execute as overlapped pipeline stages.  A bipartition is valid
    when all four of the paper's constraints hold:

    + {b Source-sink alignment}: every source node of the DAG is in [first]
      and every sink node is in [second].
    + {b Weak connectivity}: both induced subgraphs are weakly connected.
    + {b Dependency completeness}: [first] is predecessor-closed — every
      dependency of a node of [first] is itself in [first].
    + {b Reachability}: every node of [first] is reachable from a DAG source
      using only nodes of [first]. *)

type t = { first : int list; second : int list }
(** A bipartition.  The two lists are disjoint and their union is the
    node set of the DAG.  [second] is sorted ascending; [first] is in
    the topological order of {!Topo.sort}, which need not be ascending
    (on edges 2→0, 2→1, 0→3, 1→3 the enumerator yields [{2 0 | 1 3}]). *)

val is_valid : 'a Dag.t -> t -> bool
(** Check the four constraints (plus that the two sides really partition the
    node set). *)

val enumerate : ?limit:int -> 'a Dag.t -> t list
(** All valid bipartitions, at most [limit] (default [512]), deterministic
    order.  Enumeration walks predecessor-closed subsets directly, so it is
    far cheaper than scanning the powerset; of the four constraints only
    weak connectivity is checked per leaf, since the walk guarantees the
    rest.  Both sides must be non-empty.
    @raise Invalid_argument on a cyclic graph. *)

val pp : t Fmt.t
