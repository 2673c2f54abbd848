(** Symbolic expressions over the sequence length, with an
    interval/affine abstract domain.

    The certifier ({!Range_cert}) evaluates the cost/buffer pipeline on
    values of this module instead of concrete ints: an expression records
    the exact computation (the same additions and multiplications the
    concrete code performs, so evaluating it at a concrete point
    reproduces the concrete float bit-for-bit), while the attached
    {e shape} classifies how the value varies over a closed range of
    sequence lengths:

    - [Affine] — the value is exactly [c0 + cn*n + ck*k] at every grid
      point; extremes are attained at box corners.
    - [Mono] — nondecreasing in both [n] and [k]; extremes are attained
      at the (lo, lo) and (hi, hi) corners.
    - [Opaque] — only the interval bounds are known (the operation left
      the affine/monotone fragment: a difference, a general product of
      varying terms, a max with no dominant side).

    All bounds are sound over the {e box} (the real hull of the grid);
    the grid is the arithmetic progression [lo, lo+step, ..., hi] the
    certificate quantifies over.  Corners of the box are grid points by
    construction, so an [Affine]/[Mono] bound is attained at a grid
    point — the extremal witness the certificate records. *)

type var = N  (** sequence length *) | K  (** kv-cache length (decode) *)

type expr =
  | Const of float
  | Var of var
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * float  (** division by a positive constant *)
  | Max of expr * expr

type grid = private { g_lo : int; g_hi : int; g_step : int }
(** The arithmetic progression [g_lo, g_lo+g_step, ..., g_hi];
    [g_hi] is always reachable from [g_lo] in [g_step] increments. *)

val grid : lo:int -> hi:int -> step:int -> grid
(** Normalises [hi] down to the last reachable grid point.
    @raise Invalid_argument when [lo < 1], [step < 1] or [hi < lo]. *)

val grid_mem : grid -> int -> bool

type box = { n : grid; k : grid option }
(** [k = None] means the kv-length variable is unused (self-attention:
    expressions mention only [Var N]). *)

type point = { pn : int; pk : int option }
(** A grid point — the witness coordinates recorded in certificates. *)

type shape = Affine of { c0 : float; cn : float; ck : float } | Mono | Opaque

type t = private {
  expr : expr;
  shape : shape;
  lo : float;  (** sound lower bound over the box *)
  hi : float;  (** sound upper bound over the box *)
  cvals : float array;
      (** exact value at each box corner, in {!corner_values} order.
          Maintained compositionally by the constructors: the schedule
          replay builds expression DAGs with massive sharing, so
          re-walking [expr] (its tree unfolding) would be exponential. *)
}

val eval : n:float -> ?k:float -> expr -> float
(** Concrete evaluation; performs the same float operations the
    expression was built from, in the same order.
    @raise Invalid_argument when the expression mentions [Var K] and [k]
    is not supplied. *)

(** Smart constructors: each builds the expression node and derives the
    tightest shape the operands allow, with interval fallback. *)

val const : box -> float -> t
val int_ : box -> int -> t
val var : box -> var -> t

val add : box -> t -> t -> t
val mul : box -> t -> t -> t
val div : box -> t -> float -> t
(** Division by a positive constant; a literal [Const] operand folds to
    the [Const] of the quotient, which evaluates to the same float. *)

val max_ : box -> t -> t -> t

val sup : box -> t -> float * point * bool
(** Claimed supremum over the grid, the corner witness where it is
    tightest, and whether the bound is {e attained} there ([true] for
    affine/monotone shapes: the witness evaluates to exactly the bound;
    [false] for opaque bounds, which are sound but possibly strict). *)

val inf : box -> t -> float * point * bool

val corner_values : box -> t -> (point * float) list
(** The exact value at every box corner (2 points without a [k] range,
    4 with; degenerate boxes repeat points), computed compositionally —
    O(corners) regardless of expression size. *)

val num_to_string : float -> string
(** Round-trip-exact rendering: integer-valued floats verbatim, others
    as %.17g — the number format of [transfusion.cert/1]. *)

val expr_to_json : expr -> string
(** Machine-checkable rendering as nested JSON arrays:
    [["+", ["*", 3, "n"], 12]].  Numbers round-trip exactly
    (integers verbatim, other floats as %.17g). *)
