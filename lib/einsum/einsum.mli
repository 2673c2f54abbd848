(** A single (extended) Einsum operation.

    An operation reads one or more input tensors and writes one output
    tensor.  Its kind determines both its reference semantics and its cost
    shape (paper Section 4.2):

    - [Contraction]: multiply-accumulate over the {e reduction indices} —
      the indices present in at least one input but absent from the output
      (classic Einsum, Eq. 5).
    - [Map op]: apply [op] pointwise over the output index space; inputs
      whose index set is a subset of the output's are broadcast (extended
      Einsum, e.g. Eq. 15's exponentiation).
    - [Reduce op]: fold the single input over its reduction indices with the
      monoid [op] (e.g. Eq. 13's max, Eq. 16's sum).

    Compute load follows Eq. 40: the product of the output-dimension extents
    times the product of the reduction-dimension extents, scaled by the
    scalar cost factor of the operation. *)

type kind =
  | Contraction
  | Map of Scalar_op.t
  | Reduce of Scalar_op.reduce

type t = private {
  name : string;  (** unique within a cascade; conventionally the output tensor name *)
  output : Tensor_ref.t;
  inputs : Tensor_ref.t list;
  kind : kind;
}

val v : ?name:string -> kind -> output:Tensor_ref.t -> inputs:Tensor_ref.t list -> t
(** Construct and validate an operation.  [name] defaults to the output
    tensor name.
    @raise Invalid_argument when the operation is ill-formed: a contraction
    with fewer than two inputs or with output indices missing from every
    input; a reduce with arity other than one or whose output indices are
    not a subset of the input's; a map whose inputs are not broadcastable to
    the output. *)

val contraction : ?name:string -> Tensor_ref.t -> Tensor_ref.t list -> t
val map : ?name:string -> Scalar_op.t -> Tensor_ref.t -> Tensor_ref.t list -> t
val reduce : Scalar_op.reduce -> Tensor_ref.t -> Tensor_ref.t -> t

val output_dims : t -> Tensor_ref.index list
(** Indices of the output, in output order. *)

val reduction_dims : t -> Tensor_ref.index list
(** Indices appearing in inputs but not the output, sorted. *)

val all_dims : t -> Tensor_ref.index list
(** Union of output and reduction dims, sorted. *)

val compute_load : Extents.t -> t -> float
(** Eq. 40 scaled by the scalar cost factor: equivalent single-cycle PE
    slots needed to execute the operation once. *)

val is_matrix_op : t -> bool
(** True for contractions with at least one reduction index — the
    operations that map natively onto the 2D PE array.  Maps, reduces and
    degenerate contractions are vector/streaming work (1D-native). *)

val cost_factor : t -> float
(** The scalar cost factor of the operation's kind (1.0 for contraction). *)

val input_tensors : t -> string list
val output_tensor : t -> string

val pp : t Fmt.t
(** [Z[m,n] = contract(A[m,k], B[k,n])]-style rendering. *)
