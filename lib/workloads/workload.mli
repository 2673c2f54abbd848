(** A workload binds a model to a sequence length and batch size and
    derives the extent environment used throughout the framework.

    Index-name conventions (paper Sections 3 and 5):
    - [b] batch, [d] model dimension, [p] query-sequence positions,
    - [m1]/[m0] the outer/inner split of the key/value sequence
      (m1 * m0 = sequence length),
    - [h] heads, [e] key/query head dim, [f] value head dim, [s] FFN hidden.

    The [m1]/[m0] split recorded here is a {e default} (balanced) split;
    schedulers override it with their own tiling decisions. *)

type t = { model : Model.t; seq_len : int; batch : int }

val v : ?batch:int -> Model.t -> seq_len:int -> t
(** Batch defaults to 64, the fixed batch of the paper's experiments.
    @raise Invalid_argument on non-positive sizes. *)

val default_m0 : int -> int
(** The balanced inner key/value tile for a key/value sequence of the
    given length: the largest power of two that divides it and is at most
    256 (1 for odd lengths).  This is the [m0] {!extents} assumes and the
    tile the strategies fall back to when no tiling search ran — exposed
    so decode-regime callers can derive the tile of a {e cache} length
    that differs from the workload's own sequence. *)

val extents : t -> Tf_einsum.Extents.t
(** Extent environment over [b d p m1 m0 h e f s], with [m0] the
    {!default_m0} of [seq_len] and [m1 = seq_len / m0]. *)

val seq_labels : (string * int) list
(** The paper's sweep: [("1K", 1024); ...; ("1M", 1048576)]. *)

val label_of_seq : int -> string
(** "64K"-style label, falling back to the raw number. *)

val pp : t Fmt.t
