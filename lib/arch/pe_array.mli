(** Processing-element arrays.

    The simulated architecture (paper Figure 1) has two compute arrays: a
    2D spatial array for matrix-dense work and a 1D array for streaming and
    vector work.  An array is characterised by its shape; throughput is one
    scalar operation per PE per cycle. *)

type shape = One_d of int | Two_d of int * int

type t = { name : string; shape : shape }

val one_d : int -> t
(** A 1D array named ["1D"] of the given width.  @raise Invalid_argument on width < 1. *)

val two_d : int -> int -> t
(** [two_d rows cols], named ["2D"].  @raise Invalid_argument on non-positive dims. *)

val num_pes : t -> int
(** Total PE count — the [NumPEs] term of paper Eq. 41. *)

val rows : t -> int
(** Rows of a 2D array; the width of a 1D array. *)

val cols : t -> int
(** Columns of a 2D array; [1] for a 1D array. *)

val pp : t Fmt.t
