(** Diagnostics shared by every static-analysis pass.

    A diagnostic couples a stable machine-readable code (e.g.
    [E-SCHED-OVERLAP]) with a severity, a location naming the artifact it
    was found in (cascade, operation, DAG node), and a human-readable
    message.  Codes are stable across releases so tests and downstream
    tooling can match on them; the full set is documented in the README
    ("Static analysis & verification").

    Severity conventions: [Error] marks an artifact that must not be
    trusted (an inconsistent cascade, an invalid schedule, an
    unimplementable tiling); [Warning] marks something suspicious but
    well-defined (dead work, aliased indices). *)

type severity = Error | Warning

type location = {
  context : string option;  (** cascade / schedule / tiling name *)
  op : string option;  (** operation (Einsum) name *)
  node : int option;  (** DAG node or position in the cascade *)
}

type t = {
  code : string;  (** stable code, [E-*] or [W-*] *)
  severity : severity;
  location : location;
  message : string;
}

val error : ?context:string -> ?op:string -> ?node:int -> code:string -> string -> t
val warning : ?context:string -> ?op:string -> ?node:int -> code:string -> string -> t

val errors : t list -> t list
val warnings : t list -> t list
val has_errors : t list -> bool

val by_code : string -> t list -> t list
(** Diagnostics carrying the given code. *)

val codes : t list -> string list
(** Distinct codes present, sorted. *)

val summary : t list -> string
(** ["2 errors, 1 warning"]-style counting line ("clean" when empty). *)

val render : t -> string
(** One-line rendering:
    [error[E-IDX-EXTENT] in mha, op BQK: ...]. *)

val pp_list : t list Fmt.t
(** One {!render} line per diagnostic, errors first (stable within a
    severity), followed by the {!summary} line. *)
