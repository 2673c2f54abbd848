(** Extent environments: the concrete size bound to each Einsum index.

    A cascade is shape-polymorphic; binding it to a workload (model dims,
    sequence length, tile factors) happens through one of these
    environments. *)

type t

val empty : t

val of_list : (Tensor_ref.index * int) list -> t
(** @raise Invalid_argument on a duplicate binding or non-positive extent. *)

val add : Tensor_ref.index -> int -> t -> t
(** Adds or replaces a binding.  @raise Invalid_argument on extent < 1. *)

val find : t -> Tensor_ref.index -> int
(** @raise Not_found when the index is unbound. *)

val find_opt : t -> Tensor_ref.index -> int option

val mem : t -> Tensor_ref.index -> bool

val product : t -> Tensor_ref.index list -> int
(** Product of the extents of the given indices (1 for the empty list).
    @raise Not_found when any index is unbound. *)

val volume : t -> Tensor_ref.t -> int
(** Number of elements of a tensor reference under this environment. *)

val pp : t Fmt.t
