(** The repository's one JSON module: a value type, a deterministic
    writer and a bounded recursive-descent reader, with no dependencies
    so every library can reach it.

    Serialisation is deterministic (stable field order, fixed [%.12g]
    float format, 2-space indentation) so emitted documents diff
    cleanly; NaN and infinities serialise as [null].  The reader parses
    every number as {!Num}; {!Int} exists for the writer side. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** {1 Writer} *)

val escape : string -> string
(** The body of a JSON string literal, without the surrounding quotes:
    the quote and backslash characters are backslash-escaped, newline,
    carriage return and tab take their two-character escapes, other
    control bytes become [\u00XX], and every other byte is kept. *)

val to_string : t -> string
(** Pretty-printed document with a trailing newline. *)

val to_line : t -> string
(** Compact single-line rendering — same escaping and float format as
    {!to_string}, no whitespace, no trailing newline.  The framing
    unit of the newline-delimited wire protocol: the output never
    contains a raw ['\n']. *)

val to_buffer : Buffer.t -> t -> unit
(** {!to_line} appended to a buffer. *)

val write_file : path:string -> string -> unit
(** Write contents to [path], creating parent directories as needed.
    @raise Sys_error on I/O failure. *)

val write : path:string -> t -> unit
(** {!to_string} through {!write_file}. *)

(** {1 Reader} *)

exception Bad_json of string
(** Raised by {!parse} on malformed input and by the strict accessors on
    shape mismatches, with an offset or field message. *)

val parse : ?max_bytes:int -> string -> t
(** RFC 8259 JSON text to a value.  [\u] escapes decode to UTF-8, an
    escaped surrogate pair to its one 4-byte code point.
    @raise Bad_json on malformed input — including trailing garbage
    after the top-level value, numbers outside the RFC 8259 §6 grammar
    (a leading [+] or [.], leading zeros), a lone surrogate escape,
    inputs longer than [max_bytes] (no limit by default), and container
    nesting deeper than 512.  The nesting bound is what makes the parser
    safe on hostile wire input: [Stack_overflow] is not an error a
    server loop can treat as data. *)

val parse_file : string -> t
(** {!parse} the whole contents of a file.
    @raise Sys_error on I/O failure.  @raise Bad_json on malformed JSON. *)

val member : string -> t -> t
(** Strict object field lookup.  @raise Bad_json when missing. *)

val find : string -> t -> t option
(** Optional object field lookup ([None] on missing field or non-object). *)

(** Strict extraction; each raises [Bad_json] on another shape. *)

val get_list : t -> t list
val get_string : t -> string
val get_bool : t -> bool

val get_float : t -> float
(** A {!Num}, or an {!Int} as a float. *)

val get_int : t -> int
(** An {!Int}, or a {!Num} holding an integer of magnitude at most 2{^53}
    (beyond that the parsed float no longer names one integer). *)

val float_opt : t -> float option
(** [Some f] for {!Num} and {!Int}, [None] otherwise — tolerant extraction for
    documents whose optional fields may be absent or null. *)
