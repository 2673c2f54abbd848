(** Dense n-dimensional float arrays, row-major.

    This is the numeric substrate used to {e validate} dataflows — the
    streaming 1-pass attention, the tiled FFN accumulation, the LayerNorm
    cascade — against naive references.  It favours clarity over speed;
    validation instances are small. *)

type t

val create : int array -> float -> t
(** [create shape fill].  @raise Invalid_argument on a negative dimension. *)

val init : int array -> (int array -> float) -> t
(** Element [idx] is [f idx].  The callback must not retain its argument. *)

val scalar : float -> t
(** Rank-0 tensor. *)

val shape : t -> int array
val rank : t -> int
val numel : t -> int

val get : t -> int array -> float
(** @raise Invalid_argument on rank or bounds violation. *)

val data : t -> float array
(** The underlying row-major buffer — shared, not a copy: writes through
    it write the tensor.  For hot kernels that index a rank-2 tensor as
    [row * cols + col] without the per-access index-array allocation and
    bounds bookkeeping of {!get}; shape discipline is the caller's
    responsibility. *)

val set : t -> int array -> float -> unit

val copy : t -> t

val map : (float -> float) -> t -> t
val map2 : (float -> float -> float) -> t -> t -> t
(** @raise Invalid_argument on shape mismatch. *)

val fold : ('a -> float -> 'a) -> 'a -> t -> 'a

val to_list : t -> float list
(** Row-major element order. *)

val of_list : int array -> float list -> t
(** @raise Invalid_argument when the list length differs from the volume. *)

val random : ?lo:float -> ?hi:float -> Random.State.t -> int array -> t
(** Uniform elements in [[lo, hi)] (defaults [-1, 1)). *)

val equal_approx : ?tol:float -> t -> t -> bool
(** Shape equality plus element-wise [|a-b| <= tol * (1 + |a| + |b|)]
    (default tol 1e-9). *)

val max_abs_diff : t -> t -> float
(** Largest absolute element difference.  @raise Invalid_argument on shape
    mismatch. *)

val iter_indices : int array -> (int array -> unit) -> unit
(** Visit every coordinate of the given shape in row-major order.  The
    callback receives a reused buffer; copy it if retained. *)
