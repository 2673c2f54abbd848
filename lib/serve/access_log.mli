(** Size-bounded NDJSON access log with numbered rotation.

    The live file is [path]; on overflow it becomes [path.1], shifting
    older generations up to [path.max_files] (the oldest is dropped), so
    disk usage is bounded by roughly [(max_files + 1) * max_bytes]
    however long the daemon runs.  Opening an existing file terminates a
    partial trailing line left by a crashed predecessor, so complete
    records are always valid NDJSON.

    Registry counters: [serve.access_log.lines_total],
    [serve.access_log.rotations_total], [serve.access_log.errors_total].

    Thread-safe.  Writes are buffered — call {!flush} (the daemon's
    sampler tick does) before reading the file. *)

type t

val create : ?max_bytes:int -> ?max_files:int -> string -> t
(** Open [path] for append (creating it and terminating any torn
    trailing line).  [max_bytes] (default 1 MiB) bounds each file;
    [max_files] (default 4) bounds the rotated generations.
    @raise Invalid_argument when either bound is < 1. *)

val write : t -> string -> unit
(** Append one record line (the newline is added), rotating first when
    it would overflow the current file.  Write errors are counted, not
    raised. *)

val write_record : t -> (Buffer.t -> unit) -> unit
(** {!write}, but the record is assembled by [fill] directly into a
    reused internal buffer — no per-record string allocation, for the
    request hot path.  [fill] must emit exactly one line's bytes (no
    newline); if it raises, nothing is written. *)

val flush : t -> unit
val close : t -> unit
