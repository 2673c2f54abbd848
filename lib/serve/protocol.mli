(** Wire protocol of [transfusion serve]: newline-delimited JSON.

    Each request is one line, a JSON object with an ["op"] field (plus
    op-specific parameters and an optional scalar ["id"]); each response
    is one line, [{"schema":"transfusion.serve/1","ok":true,"op":...,
    "id":...,"result":<payload>}] on success and
    [{...,"ok":false,"error":"..."}] on failure.  The result payload is
    spliced into the response verbatim — it is a pre-rendered line from
    the shared {!Api} builders, and keeping its bytes untouched is what
    makes daemon responses bit-identical to one-shot CLI output. *)

val schema : string
(** ["transfusion.serve/1"]. *)

val max_request_bytes : int
(** Hard per-request size limit (1 MiB); longer lines are rejected
    before parsing. *)

exception Bad_request of string
(** {!Request.Bad_request} itself.  Client errors: malformed JSON,
    missing/ill-typed fields, unknown preset names.  The server maps
    these (and every other exception) to an [ok:false] response — never
    a dead connection. *)

type request = {
  id : Tf_json.t;  (** echoed scalar, [Null] when absent *)
  op : string;
  body : Tf_json.t;
}

val parse_request : string -> request
(** @raise Bad_request on anything other than a JSON object with a
    string ["op"] within {!max_request_bytes}. *)

(** Single-field readers: {!Request.int_field}, and the {!Request.arch},
    {!Request.model} and {!Request.strategy} entries read alone. *)

val int_field : Tf_json.t -> string -> default:int -> int
val arch_field : Tf_json.t -> Tf_arch.Arch.t
val model_field : Tf_json.t -> Tf_workloads.Model.t

val strategy_field :
  Tf_json.t -> default:Transfusion.Strategies.t -> Transfusion.Strategies.t

val ok_line : ?id:Tf_json.t -> op:string -> string -> string
(** [ok_line ~op payload] — [payload] must be a rendered single-line
    JSON value; it is spliced in byte-for-byte as the ["result"] field
    (always the last field of the response). *)

val error_line : ?id:Tf_json.t -> ?op:string -> string -> string

val result_of_line : string -> string option
(** The exact ["result"] payload bytes of an {!ok_line} response —
    the inverse splice, used by tests and the restart rehydration
    check. *)
