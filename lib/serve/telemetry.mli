(** Windowed telemetry for the daemon: a background sampler thread
    feeding a {!Tf_obs.Window} ring (refreshing the {!Tf_obs.Process}
    gauges on each tick), and the payload renderers behind the [stats]
    and [metrics --format prometheus] wire ops. *)

type t

val create : ?window:int -> ?interval_s:float -> unit -> t
(** A ring of [window] samples (default 120) fed every [interval_s]
    seconds (default 1.0) once {!start} runs — so the defaults keep a
    two-minute window.  Registers the process/GC gauges.
    @raise Invalid_argument when [interval_s <= 0]. *)

val sample_now : t -> unit
(** Take one sample immediately (process gauges + ring record) — the
    [stats] op calls this so a scrape never answers from a stale
    window. *)

val start : t -> unit
(** Spawn the sampler thread (idempotent). *)

val stop : t -> unit
(** Stop and join the sampler (returns within one interval). *)

val on_tick : t -> (unit -> unit) -> unit
(** Hook run after each periodic sample (the daemon flushes the access
    log here).  Exceptions must not escape the hook. *)

val snapshot_json : Tf_obs.snapshot -> Tf_json.t
(** A registry snapshot as one JSON object keyed by metric name:
    counters as integers, gauges as numbers, histograms as
    [{"count","sum","buckets":[[upper_bound,count],...]}].  The
    [metrics] wire op and the bench document both render through it. *)

val stats_payload : t -> string
(** The [transfusion.stats/1] line: window span, per-second counter
    rates, windowed histogram quantiles (p50/p95/p99) and delta buckets
    (so clients can evaluate arbitrary SLO thresholds via
    {!Tf_obs.fraction_le}), plus current gauge and cumulative counter
    values.  Before two samples exist only the cumulative sections are
    present. *)

val openmetrics : unit -> string
(** Refresh process gauges and render the whole registry in OpenMetrics
    text format with {!serve_extract} applied. *)
