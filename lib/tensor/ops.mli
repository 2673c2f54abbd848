(** Reference tensor operations for validation.

    All operate on {!Nd.t} values with explicit 2-D (matrix) conventions:
    matrices are [rows x cols].  These are the {e naive} implementations —
    no tiling, no streaming — used as ground truth for the fused
    dataflows. *)

val matmul : Nd.t -> Nd.t -> Nd.t
(** [matmul a b] with [a : m x k] and [b : k x n].
    @raise Invalid_argument on rank or dimension mismatch. *)

val transpose : Nd.t -> Nd.t
(** 2-D transpose. *)

val add : Nd.t -> Nd.t -> Nd.t
val scale : float -> Nd.t -> Nd.t

val add_row_bias : Nd.t -> Nd.t -> Nd.t
(** [add_row_bias m bias] adds a length-[cols] bias vector to every row. *)

val softmax_rows : Nd.t -> Nd.t
(** Numerically-stable softmax along each row of a 2-D tensor. *)

val layernorm_rows : Nd.t -> Nd.t
(** Per-row mean/variance normalisation of a 2-D tensor (no affine), the
    reference for paper Einsum Cascade 3.  No epsilon, to match the
    cascade exactly (the paper's Eq. 35 has none). *)

val activation : Tf_einsum.Scalar_op.activation -> Nd.t -> Nd.t

val mean_rows : Nd.t -> Nd.t
(** Row means of a 2-D tensor, as a vector. *)

val variance_rows : Nd.t -> Nd.t
(** Population (1/N) row variances, matching paper Eq. 34. *)
