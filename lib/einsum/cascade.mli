(** Cascades of Einsums (paper Section 2.4): an ordered sequence of
    operations in which intermediate tensors feed later operations.

    A cascade induces a computation DAG — node [i] is the [i]-th operation,
    with an edge [i -> j] whenever operation [j] reads the tensor produced
    by operation [i].  Tensors read but never produced are the cascade's
    {e external inputs} (weights, activations from the previous layer,
    recurrent state from the previous outer-tile iteration).  Tensors
    produced but never consumed are its {e results}. *)

type t

val v : ?name:string -> Einsum.t list -> t
(** Build a cascade from operations in program order.
    @raise Invalid_argument when two operations share a name, a tensor is
    produced twice, or an operation reads a tensor produced by a {e later}
    operation (cascades must be in definition order). *)

val name : t -> string
val ops : t -> Einsum.t list
val length : t -> int
val op : t -> int -> Einsum.t
(** Operation at position [i].  @raise Invalid_argument out of range. *)

val to_dag : t -> Einsum.t Tf_dag.Dag.t
(** Dependency DAG; node ids are positions in the cascade. *)

val external_inputs : t -> string list
(** Tensor names read but not produced, sorted. *)

val results : t -> string list
(** Tensor names produced but not consumed, sorted. *)

val produced : t -> string list
(** All produced tensor names, in program order. *)

val indices : t -> Tensor_ref.index list
(** Every index mentioned anywhere in the cascade, sorted. *)

val concat : ?name:string -> t list -> t
(** Sequential composition: later cascades may consume tensors of earlier
    ones.  @raise Invalid_argument on name clashes. *)

val check_extents : Extents.t -> t -> (unit, string) result
(** [Ok ()] when every index of the cascade is bound in the environment,
    otherwise an error naming the first unbound index. *)

val pp : t Fmt.t
