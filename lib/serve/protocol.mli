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
(** Client errors: malformed JSON, missing/ill-typed fields, unknown
    preset names.  The server maps these (and every other exception) to
    an [ok:false] response — never a dead connection. *)

type request = {
  id : Tf_json.t;  (** echoed scalar, [Null] when absent *)
  op : string;
  body : Tf_json.t;
}

val fail : ('a, unit, string, 'b) format4 -> 'a
(** [Printf]-style {!Bad_request} raiser for endpoint parameter
    validation. *)

val parse_request : string -> request
(** @raise Bad_request on anything other than a JSON object with a
    string ["op"] within {!max_request_bytes}. *)

(** Field accessors over the request body — absent fields take the
    default (mirroring the CLI flag defaults), ill-typed fields raise
    {!Bad_request}.  An integer field takes what {!Tf_json.get_int}
    takes, so a number beyond 2{^53} is ill-typed, not wrapped. *)

val int_field : Tf_json.t -> string -> default:int -> int
val bool_field : Tf_json.t -> string -> default:bool -> bool
val str_field : Tf_json.t -> string -> default:string -> string

val str_list_field : Tf_json.t -> string -> string list
(** A list of strings, a bare string (singleton), or absent (empty). *)

val arch_field : Tf_json.t -> Tf_arch.Arch.t
(** ["arch"] preset, default cloud. *)

val model_of : string -> Tf_workloads.Model.t
val model_field : Tf_json.t -> Tf_workloads.Model.t
(** ["model"] preset, default Llama3. *)

val strategy_of : string -> Transfusion.Strategies.t

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
