(** Scalar operations of the Extended-Einsum abstraction.

    Classic Einsums only contract with multiply-accumulate; the extended
    form (paper Section 2.4) lets an Einsum map a user-defined scalar
    function over its operands or reduce with a user-defined monoid.  Each
    operation carries a {e cost factor}: the number of single-cycle PE slots
    one application occupies.  The factors model a 45 nm fixed-function PE
    in the spirit of Accelergy's compound-component tables — LUT-based
    transcendental units cost twice an adder slot. *)

type activation = Relu | Gelu | Silu | Sigmoid

type t =
  | Add
  | Sub
  | Mul
  | Div
  | Max2  (** binary max, used by the running-max update *)
  | Exp
  | Exp_diff  (** [exp (a - b)] — the shifted exponential of the softmax numerator (Eq. 15) and the correction factor PRM (Eq. 18), a single fused unit so Cascade 1 keeps its 12-Einsum shape *)
  | Rsqrt  (** 1 / sqrt x, used by LayerNorm *)
  | Copy
  | Activation of activation

type reduce = Sum | Max_reduce

val cost_factor : t -> float
(** PE slots consumed per scalar application (1.0 for add/mul-class ops). *)

val reduce_cost_factor : reduce -> float
(** PE slots per element folded into a reduction. *)

val apply : t -> float list -> float
(** Reference semantics on floats, used by the numeric validation substrate.
    @raise Invalid_argument on arity mismatch. *)

val reduce_apply : reduce -> float -> float -> float
val reduce_identity : reduce -> float

val to_string : t -> string
val of_string : string -> t option
(** Inverse of {!to_string} (e.g. ["exp_diff"], ["gelu"]). *)

val reduce_to_string : reduce -> string
val reduce_of_string : string -> reduce option
