(** Process-wide observability for the search stack: a metrics registry
    (atomic counters / gauges / fixed-bucket histograms), monotonic
    timers, and lightweight span tracing serialized as Chrome
    trace-event JSON (chrome://tracing, Perfetto).

    Dependency-free (stdlib plus one C stub for CLOCK_MONOTONIC) and
    domain-safe: counters and histogram buckets are [Atomic.t]s, trace
    events buffer per domain.  Everything is gated on one process-wide
    {!enabled} flag — with observability off, an instrumentation site
    costs a single atomic load and an untaken branch, so the search
    stack can stay instrumented unconditionally.

    Snapshots and trace serialization are meant to be taken from a
    quiescent process (after the {!Tf_parallel} pool has drained a
    batch), which is how the CLI and bench harness use them. *)

val now_ns : unit -> int64
(** CLOCK_MONOTONIC in nanoseconds — immune to wall-clock steps. *)

val enabled : unit -> bool
(** Whether metric mutations are live (off by default). *)

val set_enabled : bool -> unit
(** Turn metric recording on or off process-wide.  Reads ({!snapshot},
    [value]) work regardless. *)

(** Monotonically increasing integer counts (events, hits, misses).
    [create] is idempotent per name: re-creating an existing counter
    returns the registered one.
    @raise Invalid_argument when the name is already registered as a
    different metric kind. *)
module Counter : sig
  type t

  val create : ?help:string -> string -> t
  val add : t -> int -> unit
  val incr : t -> unit
  val value : t -> int
end

(** Last-write-wins float values (pool sizes, utilization). *)
module Gauge : sig
  type t

  val create : ?help:string -> string -> t
  val set : t -> float -> unit
  val add : t -> float -> unit
  val value : t -> float
end

(** Fixed-bucket histograms: observations land in the first bucket
    whose upper bound is >= the value, with an implicit overflow
    bucket.  Tracks count and sum alongside. *)
module Histogram : sig
  type t

  val create : ?help:string -> ?buckets:float array -> string -> t
  (** @raise Invalid_argument unless [buckets] is strictly increasing. *)

  val observe : t -> float -> unit

  val time : t -> (unit -> 'a) -> 'a
  (** Run the thunk, observing its duration in seconds; with
      observability disabled the clock is never read.  The duration is
      recorded even when the thunk raises. *)

  val count : t -> int
  val sum : t -> float
end

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of { count : int; sum : float; buckets : (float * int) list }
      (** [buckets] pairs each upper bound (last is [infinity]) with its
          occupancy. *)

type snapshot = (string * value) list
(** Sorted by metric name. *)

val snapshot : unit -> snapshot
(** A point-in-time read of every registered metric. *)

val find : snapshot -> string -> value option

val counter_value : snapshot -> string -> int option
(** [find] specialised to counters ([None] on kind mismatch). *)

(** Operations on whole snapshots. *)
module Snapshot : sig
  val diff : before:snapshot -> snapshot -> snapshot
  (** [diff ~before after] is the per-metric change between two
      snapshots of the same process: counters and histograms become
      deltas (count, sum and every bucket), gauges keep their new level.
      Metrics that did not move — and metrics only present in [before] —
      are dropped, so a per-step report shows exactly what the step did.
      The result is a valid snapshot (sorted, since [after] is). *)
end

val reset : unit -> unit
(** Zero every registered metric (tests, repeated bench phases). *)

val help_of : string -> string
(** The help string a metric was registered with ("" when unknown). *)

val render_snapshot : snapshot -> string
(** Fixed-width text table, one metric per line (the [--metrics]
    output). *)

val quantile : q:float -> (float * int) list -> float
(** Estimate the [q]-quantile from per-bucket occupancy (the
    [Histogram_v] bucket list), Prometheus-style: locate the bucket
    holding rank [q * total] and interpolate linearly within it.  A rank
    landing in the overflow bucket answers the highest finite bound
    (the estimator never extrapolates past what the buckets witnessed);
    the first bucket's lower edge is 0 for non-negative scales.  NaN
    when the buckets are empty or [q] is outside [0, 1]. *)

val fraction_le : (float * int) list -> float -> float
(** [fraction_le buckets x] estimates the fraction of observations
    [<= x] under the same per-bucket uniformity assumption — the CDF
    companion to {!quantile}, used for SLO attainment.  Overflow-bucket
    mass counts as [> x], so error budgets computed from this are
    conservative.  NaN when the buckets are empty. *)

(** A bounded ring of timestamped registry snapshots.  Feed it from a
    periodic sampler and {!Window.stats} derives what cumulative
    metrics cannot show: per-second counter rates and windowed
    histogram quantiles ("400 qps at 12ms p95 right now").
    Thread-safe. *)
module Window : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** Default capacity 120 samples (e.g. a 2-minute window at 1 Hz).
      @raise Invalid_argument when [capacity < 2]. *)

  val capacity : t -> int

  val length : t -> int
  (** Samples currently retained. *)

  val record : t -> unit
  (** Append a timestamped {!snapshot}, evicting the oldest at
      capacity. *)

  type stats = {
    samples : int;
    span_s : float;  (** seconds between the oldest and newest sample *)
    delta : snapshot;  (** {!Snapshot.diff} oldest -> newest *)
    rates : (string * float) list;  (** counters: delta per second *)
    quantiles : (string * (float * float * float)) list;
        (** histograms: windowed (p50, p95, p99) over the delta
            buckets *)
  }

  val stats : t -> stats option
  (** [None] until two samples with a positive time span exist. *)
end

(** Process and OCaml-runtime health, published through the registry so
    one scrape carries service and runtime metrics alike: gauges
    [process.uptime_seconds], [process.max_rss_bytes],
    [process.gc.heap_words] and counters
    [process.gc.{minor,major}_collections_total],
    [process.gc.compactions_total],
    [process.gc.allocated_words_total]. *)
module Process : sig
  val register : unit -> unit
  (** Create the metrics (idempotent); until {!sample} runs they read
      zero. *)

  val sample : unit -> unit
  (** Refresh every process gauge and advance the GC counters by the
      delta since the previous sample.  Safe from concurrent threads;
      no-op (including the delta bookkeeping) while {!enabled} is
      off. *)
end

(** OpenMetrics / Prometheus text exposition for a {!snapshot}:
    sanitised metric names, [# HELP]/[# TYPE] headers, [_total] counter
    samples, cumulative [_bucket{le="..."}] histogram series with
    [_sum]/[_count], and a terminating [# EOF]. *)
module Openmetrics : sig
  val metric_name : string -> string
  (** Map an arbitrary registry name onto the exposition charset
      [[a-zA-Z0-9_:]]: illegal bytes become ['_'], a leading digit gains
      a ['_'] prefix. *)

  val escape_label_value : string -> string
  (** Escape backslash, double quote and newline per the exposition
      format. *)

  val render : ?extract:(string -> (string * (string * string) list) option) -> snapshot -> string
  (** Render a snapshot.  [extract] optionally folds structured
      registry names into labelled families — e.g. mapping
      ["serve.ping.requests_total"] to
      [("serve.requests_total", [("op", "ping")])] merges the per-op
      series into one family distinguished by an [op] label.  Names and
      label values are escaped; a family name shared across metric
      kinds is disambiguated with a kind suffix. *)
end

(** Span tracing in Chrome trace-event format.  Recording is gated on
    its own flag ({!Trace.start}/{!Trace.stop}) so metrics and traces
    can be enabled independently; events buffer per domain and are
    merged at serialization time. *)
module Trace : sig
  val start : unit -> unit
  val stop : unit -> unit
  val active : unit -> bool

  val clear : unit -> unit
  (** Drop all buffered events (every domain's buffer). *)

  val with_span : ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
  (** [with_span name f] runs [f], recording a complete ("ph":"X") event
      covering its duration — also when [f] raises, so traces of failed
      runs still show where time went.  No-op while tracing is
      inactive. *)

  val to_json : unit -> string
  (** All buffered events as a [{"traceEvents":[...]}] document,
      timestamps rebased to the first event. *)
end
