(** Directed acyclic graphs over integer node identifiers.

    The graph is the substrate of the DPipe scheduler: nodes are Einsum
    operations and edges are data dependencies.  Nodes carry a polymorphic
    payload.  The structure is persistent; adding nodes or edges returns a
    new graph. *)

type 'a t
(** A directed graph whose nodes are labelled with values of type ['a].
    Invariant: edge endpoints always refer to existing nodes.  Acyclicity is
    not enforced on construction; use {!is_acyclic} or {!Topo.sort}. *)

val empty : 'a t
(** The graph with no nodes. *)

val add_node : 'a t -> int -> 'a -> 'a t
(** [add_node g id payload] adds node [id].
    @raise Invalid_argument if [id] is already present. *)

val add_edge : 'a t -> int -> int -> 'a t
(** [add_edge g u v] adds a dependency edge [u -> v] ([v] consumes the
    output of [u]).  Duplicate edges are ignored.
    @raise Invalid_argument if either endpoint is absent. *)

val mem : 'a t -> int -> bool
(** Node membership. *)

val payload : 'a t -> int -> 'a
(** Payload of a node.
    @raise Invalid_argument naming the node id if it is absent. *)

val nodes : 'a t -> int list
(** All node identifiers in ascending order. *)

val node_count : 'a t -> int

val edge_count : 'a t -> int

val succs : 'a t -> int -> int list
(** Direct successors (consumers), ascending.  Absent node yields []. *)

val preds : 'a t -> int -> int list
(** Direct predecessors (producers), ascending.  Absent node yields []. *)

val in_degree : 'a t -> int -> int

val sources : 'a t -> int list
(** Nodes with no predecessors, ascending. *)

val sinks : 'a t -> int list
(** Nodes with no successors, ascending. *)

val edges : 'a t -> (int * int) list
(** All edges, lexicographically ordered. *)

val map : ('a -> 'b) -> 'a t -> 'b t
(** Rewrite payloads, preserving structure. *)

val of_edges : (int * 'a) list -> (int * int) list -> 'a t
(** [of_edges nodes edges] builds a graph in one step. *)

val is_acyclic : 'a t -> bool

val weakly_connected : 'a t -> int list -> bool
(** [weakly_connected g subset] is true when the induced subgraph on
    [subset] is weakly connected (edges taken in both directions).  The
    empty subset is vacuously connected. *)

val induced : 'a t -> int list -> 'a t
(** Induced subgraph on the given nodes. *)

val pp : 'a Fmt.t -> 'a t Fmt.t
(** Debug printer: one [id payload -> succs] line per node. *)
