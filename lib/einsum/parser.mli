(** Textual notation for Einsum operations and cascades.

    The concrete syntax is exactly what {!Einsum.pp} and {!Cascade.pp}
    print, one operation per line:

    {v
    BQK[h,m0,p] = contract(Q[h,e,p], BK[h,e,m0])
    LM[h,p] = reduce:max(BQK[h,m0,p])
    SLN[h,m0,p] = map:exp_diff(BQK[h,m0,p], RM[h,p])
    G = reduce:max(I[m])
    v}

    - the output reference precedes ['='];
    - the kind is [contract], [map:<scalar-op>] or [reduce:<sum|max>];
    - a rank-0 tensor omits its bracket;
    - blank lines and [#]-comments are ignored;
    - an optional leading ["cascade <name>:"] line names the cascade.

    This is the paper's [einsum(InputIndices -> OutputIndices)] notation
    (Section 4.2) extended with the operation kind, and gives the CLI and
    tests a round-trippable external form. *)

val op_of_string : string -> (Einsum.t, string) result
(** Parse one operation line. *)

val cascade_of_string : string -> (Cascade.t, string) result
(** Parse a whole cascade (multi-line). *)

val op_to_string : Einsum.t -> string
(** Render an operation in the parseable syntax (same as {!Einsum.pp}). *)

val cascade_to_string : Cascade.t -> string
(** Render a cascade; {!cascade_of_string} inverts it. *)
