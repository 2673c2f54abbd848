(** Lints over the extended-Einsum IR ({!Tf_einsum.Cascade}).

    [Einsum.v] and [Cascade.v] enforce the hard structural rules
    (operation arity, broadcastability, definition order) by raising; the
    linter covers the consistency properties they cannot see — the
    algebraic checkability that makes the Einsum formulation trustworthy
    (FuseMax's argument): every number derived from a cascade is wrong if
    two references to one tensor disagree about its shape, or if part of
    the cascade is dead weight that still contributes compute load.

    Codes emitted:
    - [E-TENSOR-RANK] — one tensor referenced with two different ranks.
    - [E-IDX-EXTENT] — one tensor dimension given two different extents by
      different references (requires an extent environment).
    - [W-IDX-ALIAS] — one tensor dimension referenced under two different
      index names of equal (or unknown) extent.
    - [E-IDX-UNBOUND] — an index with no binding in the environment.
    - [W-DEAD-TENSOR] — an operation whose output reaches none of the
      cascade's roots (only meaningful with an explicit [roots]).
    - [W-UNUSED-INPUT] — a declared external input never (live-)read.
    - [E-INPUT-UNDECLARED] — an external input missing from
      [expected_inputs].
    - [E-RESULT-MISSING] — a root that the cascade never produces.
    - [W-NAME-SHADOW] — a tensor named like an index of the cascade.
    - [W-CONTRACT-DEGENERATE] — a contraction with no reduction index
      (element-wise work dressed as matrix work).

    The op-list checks ([E-OP-DUP], [E-TENSOR-DUP], [E-USE-BEFORE-DEF])
    live in {!lint_ops}, which accepts a raw operation list so callers can
    diagnose inputs that [Cascade.v] would reject outright. *)

val lint_ops : Tf_einsum.Einsum.t list -> Diagnostic.t list
(** Definition-order checks over a raw operation list: duplicate operation
    names ([E-OP-DUP]), a tensor produced twice ([E-TENSOR-DUP]), a read
    of a tensor produced by a later operation ([E-USE-BEFORE-DEF]).
    These mirror [Cascade.v]'s exceptions as diagnostics, in context
    ["cascade"]. *)

val lint :
  ?extents:Tf_einsum.Extents.t ->
  ?roots:string list ->
  ?expected_inputs:string list ->
  Tf_einsum.Cascade.t ->
  Diagnostic.t list
(** Lint a well-formed cascade.  [extents] enables the extent-consistency
    and unbound-index checks.  [roots] names the tensors the cascade
    exists to produce (default: its {!Tf_einsum.Cascade.results}, under
    which no operation is dead); operations that reach no root are dead,
    and external inputs read only by dead operations are unused.
    [expected_inputs] declares the intended external inputs. *)
