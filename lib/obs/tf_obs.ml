(* Tf_obs: process-wide observability for the search stack.

   Three pieces, all domain-safe, on the stdlib, one C stub for
   CLOCK_MONOTONIC and Tf_json's string escaper:

   - a metrics registry of named atomic counters, gauges and
     fixed-bucket histograms.  Every mutation is guarded by one global
     [enabled] flag, so with observability off the hot-path cost is a
     single atomic load and an untaken branch;
   - monotonic timers ([now_ns], [Histogram.time]) backed by
     clock_gettime(CLOCK_MONOTONIC), so span durations survive wall
     clock adjustments;
   - lightweight span tracing that buffers events per domain (no
     cross-domain contention on the record path) and serializes to
     Chrome trace-event JSON readable by chrome://tracing and Perfetto.

   Metrics and traces are collected by [snapshot]/[Trace.to_json] from
   a quiescent process (after the parallel engine drained), which is
   how the CLI and bench harness use them. *)

external now_ns : unit -> int64 = "tf_obs_monotonic_ns"

let now_us () = Int64.to_float (now_ns ()) /. 1e3

(* ------------------------------------------------------------------ *)
(* Enable flag                                                         *)

let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag

let set_enabled b = Atomic.set enabled_flag b

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

(* [Atomic.t] on floats: CAS compares the boxed value physically, and
   [cur] is the exact box last read, so the loop retries iff another
   domain won the race. *)
let rec atomic_add_float a x =
  let cur = Atomic.get a in
  if not (Atomic.compare_and_set a cur (cur +. x)) then atomic_add_float a x

type counter = { c_help : string; c_v : int Atomic.t }

type gauge = { g_help : string; g_v : float Atomic.t }

type histogram = {
  h_help : string;
  h_bounds : float array;  (* strictly increasing upper bounds *)
  h_buckets : int Atomic.t array;  (* length = bounds + 1 (overflow) *)
  h_count : int Atomic.t;
  h_sum : float Atomic.t;
}

type metric = M_counter of counter | M_gauge of gauge | M_histogram of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

let registry_lock = Mutex.create ()

let with_registry f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

(* Idempotent registration: instrumentation sites live at module
   initialisation, but tests and per-domain caches may re-create; the
   existing metric wins as long as the kind matches. *)
let register name make classify =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> (
          match classify m with
          | Some v -> v
          | None -> invalid_arg (Printf.sprintf "Tf_obs: %S already registered with another kind" name))
      | None ->
          let v, m = make () in
          Hashtbl.add registry name m;
          v)

module Counter = struct
  type t = counter

  let create ?(help = "") name =
    register name
      (fun () ->
        let c = { c_help = help; c_v = Atomic.make 0 } in
        (c, M_counter c))
      (function M_counter c -> Some c | _ -> None)

  let add t n = if enabled () then ignore (Atomic.fetch_and_add t.c_v n : int)

  let incr t = add t 1

  let value t = Atomic.get t.c_v
end

module Gauge = struct
  type t = gauge

  let create ?(help = "") name =
    register name
      (fun () ->
        let g = { g_help = help; g_v = Atomic.make 0. } in
        (g, M_gauge g))
      (function M_gauge g -> Some g | _ -> None)

  let set t v = if enabled () then Atomic.set t.g_v v

  let add t v = if enabled () then atomic_add_float t.g_v v

  let value t = Atomic.get t.g_v
end

module Histogram = struct
  type t = histogram

  (* Default bounds cover nanoseconds-to-minutes span durations in
     seconds, geometrically. *)
  let default_bounds =
    [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.; 10.; 60. |]

  let create ?(help = "") ?(buckets = default_bounds) name =
    let sorted = Array.for_all (fun b -> b = b) buckets (* no NaN *) in
    let increasing =
      let ok = ref true in
      for i = 1 to Array.length buckets - 1 do
        if buckets.(i) <= buckets.(i - 1) then ok := false
      done;
      !ok
    in
    if (not sorted) || not increasing then
      invalid_arg (Printf.sprintf "Tf_obs.Histogram.create %S: bounds must increase" name);
    register name
      (fun () ->
        let h =
          {
            h_help = help;
            h_bounds = Array.copy buckets;
            h_buckets = Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0);
            h_count = Atomic.make 0;
            h_sum = Atomic.make 0.;
          }
        in
        (h, M_histogram h))
      (function M_histogram h -> Some h | _ -> None)

  let observe t v =
    if enabled () then begin
      let n = Array.length t.h_bounds in
      let i = ref 0 in
      while !i < n && v > t.h_bounds.(!i) do
        incr i
      done;
      ignore (Atomic.fetch_and_add t.h_buckets.(!i) 1 : int);
      ignore (Atomic.fetch_and_add t.h_count 1 : int);
      atomic_add_float t.h_sum v
    end

  (* Time [f] (in seconds) into the histogram; the clock is read only
     when metrics are live. *)
  let time t f =
    if enabled () then begin
      let t0 = now_ns () in
      Fun.protect
        ~finally:(fun () ->
          let dt = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9 in
          observe t dt)
        f
    end
    else f ()

  let count t = Atomic.get t.h_count

  let sum t = Atomic.get t.h_sum
end

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of { count : int; sum : float; buckets : (float * int) list }

type snapshot = (string * value) list

let snapshot () : snapshot =
  let read = function
    | M_counter c -> Counter_v (Counter.value c)
    | M_gauge g -> Gauge_v (Gauge.value g)
    | M_histogram h ->
        let buckets =
          List.init
            (Array.length h.h_buckets)
            (fun i ->
              let bound =
                if i < Array.length h.h_bounds then h.h_bounds.(i) else Float.infinity
              in
              (bound, Atomic.get h.h_buckets.(i)))
        in
        Histogram_v { count = Histogram.count h; sum = Histogram.sum h; buckets }
  in
  with_registry (fun () -> Hashtbl.fold (fun name m acc -> (name, read m) :: acc) registry [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let find snap name = List.assoc_opt name snap

let counter_value snap name =
  match find snap name with Some (Counter_v n) -> Some n | _ -> None

module Snapshot = struct
  let diff ~before after =
    let delta name v =
      match (v, List.assoc_opt name before) with
      | Counter_v a, Some (Counter_v b) -> if a = b then None else Some (Counter_v (a - b))
      | Counter_v 0, None -> None
      | Counter_v _, None -> Some v
      (* Gauges are levels, not accumulators: report the new level when
         it moved. *)
      | Gauge_v a, Some (Gauge_v b) -> if a = b then None else Some (Gauge_v a)
      | Gauge_v a, None -> if a = 0. then None else Some v
      | Histogram_v h, Some (Histogram_v p) ->
          if h.count = p.count then None
          else
            let buckets =
              List.map
                (fun (bound, n) ->
                  let prev =
                    match List.assoc_opt bound p.buckets with Some m -> m | None -> 0
                  in
                  (bound, n - prev))
                h.buckets
            in
            Some (Histogram_v { count = h.count - p.count; sum = h.sum -. p.sum; buckets })
      | Histogram_v h, None -> if h.count = 0 then None else Some v
      (* A name that changed kind between snapshots (registry rebuilt):
         report the new reading verbatim. *)
      | _, Some _ -> Some v
    in
    List.filter_map (fun (name, v) -> Option.map (fun d -> (name, d)) (delta name v)) after
end

let reset () =
  with_registry (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | M_counter c -> Atomic.set c.c_v 0
          | M_gauge g -> Atomic.set g.g_v 0.
          | M_histogram h ->
              Array.iter (fun b -> Atomic.set b 0) h.h_buckets;
              Atomic.set h.h_count 0;
              Atomic.set h.h_sum 0.)
        registry)

let help_of name =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (M_counter c) -> c.c_help
      | Some (M_gauge g) -> g.g_help
      | Some (M_histogram h) -> h.h_help
      | None -> "")

(* A fixed-width text table of the snapshot, for `--metrics`. *)
let render_snapshot snap =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  line "%-48s %16s  %s\n" "metric" "value" "detail";
  List.iter
    (fun (name, v) ->
      match v with
      | Counter_v n -> line "%-48s %16d\n" name n
      | Gauge_v g -> line "%-48s %16.4g\n" name g
      | Histogram_v { count; sum; buckets } ->
          let mean = if count > 0 then sum /. float_of_int count else 0. in
          let detail =
            buckets
            |> List.filter (fun (_, n) -> n > 0)
            |> List.map (fun (b, n) ->
                   if Float.is_integer b && Float.abs b < 1e15 then
                     Printf.sprintf "le%g:%d" b n
                   else if b = Float.infinity then Printf.sprintf "inf:%d" n
                   else Printf.sprintf "le%.2g:%d" b n)
            |> String.concat " "
          in
          line "%-48s %16d  sum=%.4g mean=%.4g %s\n" name count sum mean detail)
    snap;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Histogram quantile estimation                                       *)

(* Estimate the q-quantile from fixed-bucket occupancy (the snapshot's
   per-bucket counts, last bound [infinity]), Prometheus-style: find
   the bucket holding rank q*total and interpolate linearly inside it,
   assuming observations spread uniformly across the bucket.  The
   scheme is designed for non-negative observations (latencies): the
   first bucket's lower edge is 0 unless its bound is itself negative,
   in which case the bound is returned exactly.  Rank landing in the
   overflow bucket answers the highest finite bound — the estimator
   never invents values beyond what the buckets witnessed.  Empty
   buckets (or q outside [0,1]) answer NaN. *)
let quantile ~q buckets =
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 buckets in
  if total = 0 || q < 0. || q > 1. || Float.is_nan q then Float.nan
  else begin
    let rank = q *. float_of_int total in
    let clamp f = Float.max 0. (Float.min 1. f) in
    let rec go lower cum = function
      | [] -> ( match lower with Some l -> l | None -> Float.nan)
      | (ub, n) :: rest ->
          let cum' = cum + n in
          if n > 0 && float_of_int cum' >= rank then
            if ub = Float.infinity then
              (* All we know is "past the last finite bound". *)
              match lower with Some l -> l | None -> Float.nan
            else
              let lo =
                match lower with Some l -> l | None -> Float.min 0. ub
              in
              lo +. ((ub -. lo) *. clamp ((rank -. float_of_int cum) /. float_of_int n))
          else go (if ub = Float.infinity then lower else Some ub) cum' rest
    in
    go None 0 buckets
  end

(* The matching CDF estimate: the fraction of observations <= x under
   the same per-bucket uniformity assumption.  Mass in the overflow
   bucket counts as > x (there is no width to interpolate over), so SLO
   burn computed from this is conservative. *)
let fraction_le buckets x =
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 buckets in
  if total = 0 then Float.nan
  else begin
    let clamp f = Float.max 0. (Float.min 1. f) in
    let rec go lower cum = function
      | [] -> 1.
      | (ub, n) :: rest ->
          if ub <> Float.infinity && x >= ub then go (Some ub) (cum + n) rest
          else
            let inside =
              if ub = Float.infinity then 0.
              else
                let lo = match lower with Some l -> l | None -> Float.min 0. ub in
                if ub = lo then 1. else clamp ((x -. lo) /. (ub -. lo))
            in
            (float_of_int cum +. (float_of_int n *. inside)) /. float_of_int total
    in
    go None 0 buckets
  end

(* ------------------------------------------------------------------ *)
(* Windowed time series                                                *)

(* A bounded ring of timestamped snapshots.  A sampler (thread, bench
   loop, test) calls [record] periodically; [stats] derives what the
   cumulative registry cannot show: per-second counter rates and
   histogram quantiles over the window — the difference between "the
   daemon has served 10^9 requests" and "it is serving 400 qps at 12ms
   p95 right now".  Thread-safe: one mutex guards the ring (recording
   is O(registry), far off any hot path). *)
module Window = struct
  type sample = { ts_ns : int64; snap : snapshot }

  type t = {
    cap : int;
    ring : sample option array;
    mutable head : int;  (* next write position *)
    mutable count : int;
    lock : Mutex.t;
  }

  let create ?(capacity = 120) () =
    if capacity < 2 then invalid_arg "Tf_obs.Window.create: capacity must be >= 2";
    { cap = capacity; ring = Array.make capacity None; head = 0; count = 0; lock = Mutex.create () }

  let capacity t = t.cap

  let length t =
    Mutex.lock t.lock;
    let n = t.count in
    Mutex.unlock t.lock;
    n

  let record t =
    let s = { ts_ns = now_ns (); snap = snapshot () } in
    Mutex.lock t.lock;
    t.ring.(t.head) <- Some s;
    t.head <- (t.head + 1) mod t.cap;
    if t.count < t.cap then t.count <- t.count + 1;
    Mutex.unlock t.lock

  (* Oldest and newest retained samples, atomically. *)
  let bounds t =
    Mutex.lock t.lock;
    let r =
      if t.count < 2 then None
      else
        let newest = t.ring.((t.head + t.cap - 1) mod t.cap) in
        let oldest = if t.count < t.cap then t.ring.(0) else t.ring.(t.head) in
        match (oldest, newest) with Some o, Some n -> Some (o, n) | _ -> None
    in
    Mutex.unlock t.lock;
    r

  type stats = {
    samples : int;
    span_s : float;  (** seconds between the oldest and newest sample *)
    delta : snapshot;  (** {!Snapshot.diff} oldest -> newest *)
    rates : (string * float) list;  (** counters: delta per second *)
    quantiles : (string * (float * float * float)) list;
        (** histograms: windowed (p50, p95, p99) over the delta buckets *)
  }

  let stats t =
    match bounds t with
    | None -> None
    | Some (oldest, newest) ->
        let span_s = Int64.to_float (Int64.sub newest.ts_ns oldest.ts_ns) /. 1e9 in
        if span_s <= 0. then None
        else
          let delta = Snapshot.diff ~before:oldest.snap newest.snap in
          let rates =
            List.filter_map
              (fun (name, v) ->
                match v with
                | Counter_v d -> Some (name, float_of_int d /. span_s)
                | _ -> None)
              delta
          in
          let quantiles =
            List.filter_map
              (fun (name, v) ->
                match v with
                | Histogram_v { buckets; _ } ->
                    Some
                      ( name,
                        ( quantile ~q:0.50 buckets,
                          quantile ~q:0.95 buckets,
                          quantile ~q:0.99 buckets ) )
                | _ -> None)
              delta
          in
          let samples = length t in
          Some { samples; span_s; delta; rates; quantiles }
end

(* ------------------------------------------------------------------ *)
(* Process and runtime gauges                                          *)

(* Uptime, peak RSS and OCaml GC pressure, published through the same
   registry so one scrape carries them.  Monotonic GC statistics are
   real counters (windowed rates make "minor collections per second"
   meaningful); [sample] applies the delta since the previous sample
   under a lock, so concurrent samplers never double-count.  Mutations
   ride the global [enabled] flag like every other site: a disabled
   sample is skipped entirely (including the last-seen bookkeeping, so
   nothing is lost across an enable). *)
module Process = struct
  external maxrss_bytes : unit -> int64 = "tf_obs_maxrss_bytes"

  let start_ns = now_ns ()

  type state = {
    uptime : gauge;
    rss : gauge;
    heap : gauge;
    minor : counter;
    major : counter;
    compactions : counter;
    allocated : counter;
    lock : Mutex.t;
    mutable last_minor : int;
    mutable last_major : int;
    mutable last_compactions : int;
    mutable last_allocated : float;
  }

  let state =
    lazy
      {
        uptime = Gauge.create ~help:"seconds since process start" "process.uptime_seconds";
        rss = Gauge.create ~help:"peak resident set size (bytes)" "process.max_rss_bytes";
        heap = Gauge.create ~help:"OCaml major heap size (words)" "process.gc.heap_words";
        minor =
          Counter.create ~help:"OCaml minor collections" "process.gc.minor_collections_total";
        major =
          Counter.create ~help:"OCaml major collection cycles" "process.gc.major_collections_total";
        compactions = Counter.create ~help:"OCaml heap compactions" "process.gc.compactions_total";
        allocated =
          Counter.create ~help:"words allocated on the OCaml heap"
            "process.gc.allocated_words_total";
        lock = Mutex.create ();
        last_minor = 0;
        last_major = 0;
        last_compactions = 0;
        last_allocated = 0.;
      }

  let register () = ignore (Lazy.force state : state)

  let sample () =
    if enabled () then begin
      let s = Lazy.force state in
      Mutex.lock s.lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock s.lock)
        (fun () ->
          let g = Gc.quick_stat () in
          Gauge.set s.uptime (Int64.to_float (Int64.sub (now_ns ()) start_ns) /. 1e9);
          Gauge.set s.rss (Int64.to_float (maxrss_bytes ()));
          Gauge.set s.heap (float_of_int g.Gc.heap_words);
          let bump c now last = if now > last then Counter.add c (now - last) in
          bump s.minor g.Gc.minor_collections s.last_minor;
          bump s.major g.Gc.major_collections s.last_major;
          bump s.compactions g.Gc.compactions s.last_compactions;
          let allocated = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words in
          if allocated > s.last_allocated then
            Counter.add s.allocated (int_of_float (allocated -. s.last_allocated));
          s.last_minor <- g.Gc.minor_collections;
          s.last_major <- g.Gc.major_collections;
          s.last_compactions <- g.Gc.compactions;
          s.last_allocated <- allocated)
    end
end

(* ------------------------------------------------------------------ *)
(* OpenMetrics / Prometheus text exposition                            *)

(* Renders a snapshot in the OpenMetrics text format: sanitised metric
   names, HELP/TYPE headers, [_total] counter samples, cumulative
   [_bucket{le=...}] histogram series with [_sum]/[_count], and a
   terminating [# EOF].  An optional [extract] hook folds families out
   of structured registry names (e.g. [serve.ping.requests_total] ->
   family [serve_requests_total] with label [op="ping"]), with label
   values escaped per the spec. *)
module Openmetrics = struct
  let is_name_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
    || c = ':'

  (* Map a registry name onto the exposition charset: every illegal
     byte becomes '_', a leading digit gets a '_' prefix. *)
  let metric_name s =
    if s = "" then "_"
    else begin
      let b = Buffer.create (String.length s + 1) in
      String.iteri
        (fun i c ->
          let c = if is_name_char c then c else '_' in
          if i = 0 && c >= '0' && c <= '9' then Buffer.add_char b '_';
          Buffer.add_char b c)
        s;
      Buffer.contents b
    end

  let escape_label_value s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | '"' -> Buffer.add_string b "\\\""
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let escape_help s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let float_str f =
    if f = Float.infinity then "+Inf"
    else if f = Float.neg_infinity then "-Inf"
    else if Float.is_nan f then "NaN"
    else Printf.sprintf "%.12g" f

  let labels_str = function
    | [] -> ""
    | kvs ->
        let fields =
          List.map
            (fun (k, v) -> Printf.sprintf "%s=\"%s\"" (metric_name k) (escape_label_value v))
            kvs
        in
        Printf.sprintf "{%s}" (String.concat "," fields)

  (* One bucket series must merge the [le] label with the caller's
     labels. *)
  let labels_with_le kvs le =
    let fields =
      List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" (metric_name k) (escape_label_value v)) kvs
      @ [ Printf.sprintf "le=\"%s\"" (float_str le) ]
    in
    Printf.sprintf "{%s}" (String.concat "," fields)

  type kind = K_counter | K_gauge | K_histogram

  let kind_str = function
    | K_counter -> "counter"
    | K_gauge -> "gauge"
    | K_histogram -> "histogram"

  let render ?(extract = fun _ -> None) (snap : snapshot) =
    (* Families in first-appearance order; members keep snapshot order
       (sorted by registry name, so the output is deterministic). *)
    let order : string list ref = ref [] in
    let families : (string, kind * string * (string * string) list * value) Hashtbl.t =
      Hashtbl.create 32
    in
    let add family kind help labels v =
      if not (Hashtbl.mem families family) then order := family :: !order;
      Hashtbl.add families family (kind, help, labels, v)
    in
    List.iter
      (fun (name, v) ->
        let base, labels =
          match extract name with
          | Some (family, labels) -> (metric_name family, labels)
          | None -> (metric_name name, [])
        in
        let help = help_of name in
        match v with
        | Counter_v _ ->
            (* OpenMetrics: the family drops the [_total] suffix, the
               sample line carries it. *)
            let family =
              if String.length base > 6 && String.sub base (String.length base - 6) 6 = "_total"
              then String.sub base 0 (String.length base - 6)
              else base
            in
            add family K_counter help labels v
        | Gauge_v _ -> add base K_gauge help labels v
        | Histogram_v _ -> add base K_histogram help labels v)
      snap;
    let buf = Buffer.create 4096 in
    List.iter
      (fun family ->
        let members = List.rev (Hashtbl.find_all families family) in
        (* A family name shared across metric kinds would be malformed
           exposition; disambiguate the minority kinds by suffix. *)
        let kinds = List.sort_uniq compare (List.map (fun (k, _, _, _) -> k) members) in
        List.iter
          (fun kind ->
            let members = List.filter (fun (k, _, _, _) -> k = kind) members in
            let family =
              if List.length kinds = 1 then family
              else Printf.sprintf "%s_%s" family (kind_str kind)
            in
            let help =
              match List.find_opt (fun (_, h, _, _) -> h <> "") members with
              | Some (_, h, _, _) -> h
              | None -> ""
            in
            if help <> "" then
              Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" family (escape_help help));
            Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" family (kind_str kind));
            List.iter
              (fun (_, _, labels, v) ->
                match v with
                | Counter_v n ->
                    Buffer.add_string buf
                      (Printf.sprintf "%s_total%s %d\n" family (labels_str labels) n)
                | Gauge_v g ->
                    Buffer.add_string buf
                      (Printf.sprintf "%s%s %s\n" family (labels_str labels) (float_str g))
                | Histogram_v { count; sum; buckets } ->
                    let cum = ref 0 in
                    List.iter
                      (fun (ub, n) ->
                        cum := !cum + n;
                        Buffer.add_string buf
                          (Printf.sprintf "%s_bucket%s %d\n" family (labels_with_le labels ub)
                             !cum))
                      buckets;
                    Buffer.add_string buf
                      (Printf.sprintf "%s_sum%s %s\n" family (labels_str labels) (float_str sum));
                    Buffer.add_string buf
                      (Printf.sprintf "%s_count%s %d\n" family (labels_str labels) count))
              members)
          kinds)
      (List.rev !order);
    Buffer.add_string buf "# EOF\n";
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)
(* Span tracing (Chrome trace-event JSON)                              *)

module Trace = struct
  type event = {
    ev_name : string;
    ev_cat : string;
    ev_dur_us : float;
    ev_ts_us : float;
    ev_tid : int;
    ev_args : (string * string) list;
  }

  let active_flag = Atomic.make false

  let active () = Atomic.get active_flag

  (* Per-domain event buffers: each domain appends only to its own ref,
     registered once in [all_buffers] under a lock.  Collection happens
     from a quiescent process, so unsynchronized appends never race a
     reader in practice. *)
  let buffers_lock = Mutex.create ()

  let all_buffers : event list ref list ref = ref []

  let local_buffer : event list ref Domain.DLS.key =
    Domain.DLS.new_key (fun () ->
        let buf = ref [] in
        Mutex.lock buffers_lock;
        all_buffers := buf :: !all_buffers;
        Mutex.unlock buffers_lock;
        buf)

  let record ev =
    let buf = Domain.DLS.get local_buffer in
    buf := ev :: !buf

  let start () = Atomic.set active_flag true

  let stop () = Atomic.set active_flag false

  let clear () =
    Mutex.lock buffers_lock;
    List.iter (fun buf -> buf := []) !all_buffers;
    Mutex.unlock buffers_lock

  let tid () = (Domain.self () :> int)

  (* The span is recorded even when [f] raises, so a trace of a failed
     run still shows where time went. *)
  let with_span ?(cat = "") ?(args = []) name f =
    if not (active ()) then f ()
    else begin
      let t0 = now_us () in
      Fun.protect
        ~finally:(fun () ->
          let t1 = now_us () in
          record
            { ev_name = name; ev_cat = cat; ev_dur_us = t1 -. t0; ev_ts_us = t0;
              ev_tid = tid (); ev_args = args })
        f
    end

  let events () =
    Mutex.lock buffers_lock;
    let all = List.concat_map (fun buf -> !buf) !all_buffers in
    Mutex.unlock buffers_lock;
    List.sort (fun a b -> compare a.ev_ts_us b.ev_ts_us) all

  let to_json () =
    let evs = events () in
    (* Rebase timestamps so the trace starts near zero: viewers cope
       with raw monotonic stamps, but small numbers diff better. *)
    let base = match evs with [] -> 0. | e :: _ -> e.ev_ts_us in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\"traceEvents\":[\n";
    List.iteri
      (fun i ev ->
        if i > 0 then Buffer.add_string buf ",\n";
        let common =
          Printf.sprintf "\"name\":\"%s\",\"cat\":\"%s\",\"pid\":1,\"tid\":%d,\"ts\":%.3f"
            (Tf_json.escape ev.ev_name)
            (Tf_json.escape (if ev.ev_cat = "" then "transfusion" else ev.ev_cat))
            ev.ev_tid (ev.ev_ts_us -. base)
        in
        let phase = Printf.sprintf "\"ph\":\"X\",\"dur\":%.3f" ev.ev_dur_us in
        let args =
          match ev.ev_args with
          | [] -> ""
          | kvs ->
              let fields =
                List.map
                  (fun (k, v) ->
                    Printf.sprintf "\"%s\":\"%s\"" (Tf_json.escape k) (Tf_json.escape v))
                  kvs
              in
              Printf.sprintf ",\"args\":{%s}" (String.concat "," fields)
        in
        Buffer.add_string buf (Printf.sprintf "{%s,%s%s}" common phase args))
      evs;
    Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
    Buffer.contents buf
end
