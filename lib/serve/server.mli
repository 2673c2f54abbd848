(** The [transfusion serve] daemon: a persistent scheduling service
    answering {!Protocol} requests over a Unix-domain (and optionally
    loopback-TCP) socket, one thread per connection, all computations
    dispatched through the shared {!Tf_experiments.Exp_common} /
    {!Tf_parallel} machinery and cached in the two-tier {!Cache}.

    Failure discipline: every exception a request provokes — malformed
    JSON, unknown presets, verification failures, even bugs — is mapped
    to an [ok:false] response on that connection; torn connections
    (EPIPE, resets) are dropped quietly.  The daemon only exits on a
    [shutdown] request. *)

type config = {
  socket_path : string option;  (** Unix-domain listening socket *)
  tcp_port : int option;  (** loopback TCP, when given *)
  cache_dir : string option;  (** disk tier root; memory-only when absent *)
  cache_entries : int;  (** memory-tier bound (LRU) *)
  grid : int;  (** seq-len bucket width; [0] disables bucketing *)
  access_log : string option;  (** NDJSON access-log path; off when absent *)
  access_log_max_bytes : int;  (** per-file rotation bound *)
  access_log_max_files : int;  (** rotated generations kept *)
  sample_interval_s : float;  (** telemetry sampler period *)
  window : int;  (** telemetry ring capacity (samples) *)
}

val default_config : config
(** No sockets, no disk tier, 1024 memory entries, bucketing off, no
    access log, a 120-sample window fed at 1 Hz — callers fill in the
    sockets they want. *)

type t

val create : config -> t
(** Build the server state (cache tiers, per-endpoint metrics) and turn
    the {!Tf_obs} registry on — the [metrics] endpoint is part of the
    protocol.  Does not listen yet. *)

val handle_line : t -> string -> string
(** The request router: one request line in, one response line out.
    Total — never raises, whatever the input (the fuzz suite drives
    random mutations through it); does not require a running socket, so
    tests and the in-process bench exercise the full dispatch/cache
    path directly.

    Endpoints: [ping], [schedule] (two-tier cached, seq-len bucketing
    when [grid > 0]), [explain], [decode], [metrics] (cumulative JSON,
    or OpenMetrics text with ["format":"prometheus"]), [stats]
    (windowed [transfusion.stats/1] aggregates), [shutdown].

    Every handled request lands one [transfusion.access/1] record in
    the access log (when configured) carrying its correlation id — the
    client's scalar ["id"] or a minted one — plus cache fingerprint,
    answering tier, latency and outcome; the same id tags the request's
    {!Tf_obs.Trace} span. *)

val serve : t -> unit
(** Bind the configured sockets and run the accept loop (one thread per
    connection) until a [shutdown] request (or {!stop}) flips the flag;
    then close the listeners and unlink the Unix socket path.  Ignores
    [SIGPIPE] process-wide.
    @raise Invalid_argument when the config names no socket at all. *)

val telemetry : t -> Telemetry.t
(** The server's sampler/window — {!serve} runs it; embedders driving
    {!handle_line} directly (tests, bench) start or sample it
    themselves. *)

val access_log : t -> Access_log.t option
(** The access log, when the config enabled one (embedders flush it
    before reading). *)
