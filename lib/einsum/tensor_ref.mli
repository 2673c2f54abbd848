(** References to tensors by name and index list.

    ["BQK"[h;m1;m0;p]] names the tensor [BQK] ranged over indices
    [h, m1, m0, p].  Index names are the rank variables of the Einsum
    notation; their extents live in an {!Extents.t} environment. *)

type index = string

type t = { tensor : string; indices : index list }

val v : string -> index list -> t
(** [v name indices] builds a reference.
    @raise Invalid_argument if [indices] contains duplicates. *)

val scalar : string -> t
(** A rank-0 reference. *)

val rank : t -> int

val indices_of_many : t list -> index list
(** Union of the index sets of several references, sorted, deduplicated. *)

val to_string : t -> string
val pp : t Fmt.t
