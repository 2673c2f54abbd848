(* Tests for Tf_obs: registry semantics, the disabled-is-free contract,
   trace JSON well-formedness and domain-safety of concurrent updates.

   The registry is process-global, so each test leaves the enabled flag
   off and works with uniquely named metrics where staleness could
   interfere. *)

module Obs = Tf_obs

let with_enabled f =
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

let test_counter_and_gauge () =
  with_enabled @@ fun () ->
  let c = Obs.Counter.create ~help:"test counter" "test.counter" in
  Alcotest.(check int) "starts at zero" 0 (Obs.Counter.value c);
  Obs.Counter.incr c;
  Obs.Counter.add c 4;
  Alcotest.(check int) "accumulates" 5 (Obs.Counter.value c);
  let g = Obs.Gauge.create "test.gauge" in
  Obs.Gauge.set g 2.5;
  Obs.Gauge.add g 0.5;
  Alcotest.(check (float 1e-12)) "gauge" 3.0 (Obs.Gauge.value g)

let test_registration_idempotent () =
  let a = Obs.Counter.create "test.idempotent" in
  let b = Obs.Counter.create "test.idempotent" in
  with_enabled (fun () -> Obs.Counter.incr a);
  Alcotest.(check int) "same underlying metric" (Obs.Counter.value a) (Obs.Counter.value b);
  Alcotest.(check bool) "kind clash rejected" true
    (try
       ignore (Obs.Gauge.create "test.idempotent" : Obs.Gauge.t);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check string) "help preserved"
    (Obs.help_of "test.counter") "test counter"

let test_disabled_is_noop () =
  Obs.set_enabled false;
  let c = Obs.Counter.create "test.disabled.counter" in
  let h = Obs.Histogram.create "test.disabled.hist" in
  let before = Obs.Counter.value c in
  Obs.Counter.incr c;
  Obs.Counter.add c 100;
  Obs.Histogram.observe h 1.0;
  let r = Obs.Histogram.time h (fun () -> 17) in
  Alcotest.(check int) "timed thunk still runs" 17 r;
  Alcotest.(check int) "counter untouched" before (Obs.Counter.value c);
  Alcotest.(check int) "histogram untouched" 0 (Obs.Histogram.count h)

let test_histogram_buckets () =
  with_enabled @@ fun () ->
  let h = Obs.Histogram.create ~buckets:[| 1.; 10.; 100. |] "test.hist" in
  List.iter (Obs.Histogram.observe h) [ 0.5; 5.; 5.; 50.; 5000. ];
  Alcotest.(check int) "count" 5 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 5060.5 (Obs.Histogram.sum h);
  (match Obs.find (Obs.snapshot ()) "test.hist" with
  | Some (Obs.Histogram_v { buckets; _ }) ->
      Alcotest.(check (list (pair (float 1e-12) int)))
        "bucket occupancy"
        [ (1., 1); (10., 2); (100., 1); (Float.infinity, 1) ]
        buckets
  | _ -> Alcotest.fail "histogram missing from snapshot");
  Alcotest.(check bool) "non-increasing bounds rejected" true
    (try
       ignore (Obs.Histogram.create ~buckets:[| 2.; 1. |] "test.hist.bad" : Obs.Histogram.t);
       false
     with Invalid_argument _ -> true)

let test_snapshot_and_reset () =
  with_enabled @@ fun () ->
  let c = Obs.Counter.create "test.reset.counter" in
  Obs.Counter.add c 9;
  let snap = Obs.snapshot () in
  Alcotest.(check (option int)) "snapshot reads counter" (Some 9)
    (Obs.counter_value snap "test.reset.counter");
  let names = List.map fst snap in
  Alcotest.(check (list string)) "snapshot sorted by name" (List.sort compare names) names;
  Alcotest.(check bool) "render mentions the metric" true
    (let rendered = Obs.render_snapshot snap in
     let needle = "test.reset.counter" in
     let n = String.length rendered and m = String.length needle in
     let rec scan i = i + m <= n && (String.sub rendered i m = needle || scan (i + 1)) in
     scan 0);
  Obs.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Obs.Counter.value c)

let test_snapshot_diff () =
  with_enabled @@ fun () ->
  let c = Obs.Counter.create "test.diff.counter" in
  let quiet = Obs.Counter.create "test.diff.quiet" in
  let g = Obs.Gauge.create "test.diff.gauge" in
  let h = Obs.Histogram.create ~buckets:[| 1.; 10. |] "test.diff.hist" in
  Obs.Counter.add c 3;
  Obs.Counter.add quiet 7;
  Obs.Gauge.set g 1.0;
  Obs.Histogram.observe h 0.5;
  let before = Obs.snapshot () in
  Obs.Counter.add c 5;
  Obs.Gauge.set g 4.0;
  Obs.Histogram.observe h 5.;
  Obs.Histogram.observe h 100.;
  let d = Obs.Snapshot.diff ~before (Obs.snapshot ()) in
  Alcotest.(check (option int)) "counter delta" (Some 5) (Obs.counter_value d "test.diff.counter");
  Alcotest.(check bool) "unchanged counter dropped" true
    (Obs.find d "test.diff.quiet" = None);
  (match Obs.find d "test.diff.gauge" with
  | Some (Obs.Gauge_v v) -> Alcotest.(check (float 1e-12)) "gauge keeps new level" 4.0 v
  | _ -> Alcotest.fail "moved gauge missing from diff");
  (match Obs.find d "test.diff.hist" with
  | Some (Obs.Histogram_v { count; sum; buckets }) ->
      Alcotest.(check int) "histogram count delta" 2 count;
      Alcotest.(check (float 1e-9)) "histogram sum delta" 105. sum;
      Alcotest.(check (list (pair (float 1e-12) int)))
        "per-bucket deltas"
        [ (1., 0); (10., 1); (Float.infinity, 1) ]
        buckets
  | _ -> Alcotest.fail "histogram missing from diff")

let test_snapshot_diff_new_metric () =
  with_enabled @@ fun () ->
  let before = Obs.snapshot () in
  let c = Obs.Counter.create "test.diff.appeared" in
  Obs.Counter.add c 2;
  let d = Obs.Snapshot.diff ~before (Obs.snapshot ()) in
  Alcotest.(check (option int)) "metric absent from before reports its reading" (Some 2)
    (Obs.counter_value d "test.diff.appeared");
  let names = List.map fst d in
  Alcotest.(check (list string)) "diff stays sorted" (List.sort compare names) names

(* Concurrent increments from every pool domain must all land: counters
   are atomics, not locked sections, so this exercises the contended
   path. *)
let test_domain_safety () =
  with_enabled @@ fun () ->
  let c = Obs.Counter.create "test.domains.counter" in
  let h = Obs.Histogram.create ~buckets:[| 10. |] "test.domains.hist" in
  let n = 1000 in
  Tf_parallel.iter ~jobs:4 ~chunk:7
    (fun _ ->
      Obs.Counter.incr c;
      Obs.Histogram.observe h 1.)
    (Array.init n (fun i -> i));
  Alcotest.(check int) "no lost counter updates" n (Obs.Counter.value c);
  Alcotest.(check int) "no lost observations" n (Obs.Histogram.count h);
  Alcotest.(check (float 1e-6)) "sum consistent" (float_of_int n) (Obs.Histogram.sum h)

(* ------------------------------------------------------------------ *)
(* Trace JSON: the emitted document must parse (through the repo's one
   reader, Tf_json) and have the trace-event shape viewers require. *)

open Tf_json

let parse_json = Tf_json.parse

let test_trace_json () =
  Obs.Trace.clear ();
  Obs.Trace.start ();
  Fun.protect ~finally:(fun () -> Obs.Trace.stop (); Obs.Trace.clear ()) @@ fun () ->
  let r =
    Obs.Trace.with_span ~cat:"test" ~args:[ ("k", "v\"with\\escapes\n") ] "outer" (fun () ->
        Obs.Trace.with_span "inner" (fun () -> ());
        11)
  in
  Alcotest.(check int) "span returns the thunk value" 11 r;
  (* A raising span still records. *)
  (try Obs.Trace.with_span "failing" (fun () -> failwith "boom") with Failure _ -> ());
  let doc = parse_json (Obs.Trace.to_json ()) in
  let events =
    match doc with
    | Obj fields -> (
        match List.assoc_opt "traceEvents" fields with
        | Some (List evs) -> evs
        | _ -> Alcotest.fail "traceEvents missing")
    | _ -> Alcotest.fail "top level is not an object"
  in
  Alcotest.(check int) "outer + inner + failing" 3 (List.length events);
  let names =
    List.filter_map
      (function Obj f -> (match List.assoc_opt "name" f with Some (Str s) -> Some s | _ -> None) | _ -> None)
      events
  in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " recorded") true (List.mem expected names))
    [ "outer"; "inner"; "failing" ];
  List.iter
    (fun ev ->
      match ev with
      | Obj f ->
          let has k = List.mem_assoc k f in
          Alcotest.(check bool) "required trace-event fields" true
            (has "name" && has "ph" && has "ts" && has "pid" && has "tid");
          (match List.assoc "ph" f with
          | Str "X" -> Alcotest.(check bool) "complete events carry dur" true (has "dur")
          | _ -> Alcotest.fail "unexpected phase")
      | _ -> Alcotest.fail "event is not an object")
    events

let test_trace_inactive_buffers_nothing () =
  Obs.Trace.clear ();
  Alcotest.(check bool) "inactive by default" false (Obs.Trace.active ());
  Obs.Trace.with_span "ignored" (fun () -> ());
  match parse_json (Obs.Trace.to_json ()) with
  | Obj fields -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (List []) -> ()
      | _ -> Alcotest.fail "expected empty traceEvents")
  | _ -> Alcotest.fail "top level is not an object"

let test_trace_across_domains () =
  Obs.Trace.clear ();
  Obs.Trace.start ();
  Fun.protect ~finally:(fun () -> Obs.Trace.stop (); Obs.Trace.clear ()) @@ fun () ->
  Tf_parallel.iter ~jobs:4 ~chunk:1
    (fun i -> Obs.Trace.with_span "work" (fun () -> ignore (Sys.opaque_identity (i * i))))
    (Array.init 16 (fun i -> i));
  let doc = parse_json (Obs.Trace.to_json ()) in
  match doc with
  | Obj fields -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (List evs) ->
          let work =
            List.filter
              (function
                | Obj f -> List.assoc_opt "name" f = Some (Str "work")
                | _ -> false)
              evs
          in
          (* Every span lands in some domain's buffer; the merged JSON
             must carry all 16 regardless of which domain ran which. *)
          Alcotest.(check int) "all spans collected" 16 (List.length work)
      | _ -> Alcotest.fail "traceEvents missing")
  | _ -> Alcotest.fail "top level is not an object"

(* ------------------------------------------------------------------ *)
(* Histogram estimators: quantile interpolation and the CDF companion. *)

let inf = Float.infinity

let test_quantile_one_bucket () =
  (* All mass in one finite bucket: the top quantile is the bound
     exactly, interior quantiles interpolate uniformly from 0. *)
  let b = [ (5., 4); (inf, 0) ] in
  Alcotest.(check (float 1e-12)) "q=1 answers the bound" 5.0 (Obs.quantile ~q:1.0 b);
  Alcotest.(check (float 1e-12)) "q=0.5 uniform midpoint" 2.5 (Obs.quantile ~q:0.5 b);
  Alcotest.(check (float 1e-12)) "q=0 answers the lower edge" 0.0 (Obs.quantile ~q:0.0 b);
  (* All mass past the last finite bound: never extrapolate. *)
  let o = [ (5., 0); (inf, 3) ] in
  Alcotest.(check (float 1e-12)) "overflow answers last finite bound" 5.0 (Obs.quantile ~q:0.5 o);
  Alcotest.(check bool) "empty is NaN" true (Float.is_nan (Obs.quantile ~q:0.5 []));
  Alcotest.(check bool) "q out of range is NaN" true (Float.is_nan (Obs.quantile ~q:1.5 b))

let test_quantile_monotonic () =
  let b = [ (0.001, 5); (0.01, 20); (0.1, 50); (1., 10); (inf, 2) ] in
  let p50 = Obs.quantile ~q:0.50 b in
  let p95 = Obs.quantile ~q:0.95 b in
  let p99 = Obs.quantile ~q:0.99 b in
  List.iter
    (fun (n, v) -> Alcotest.(check bool) (n ^ " finite") true (Float.is_finite v))
    [ ("p50", p50); ("p95", p95); ("p99", p99) ];
  Alcotest.(check bool) "p50 <= p95" true (p50 <= p95);
  Alcotest.(check bool) "p95 <= p99" true (p95 <= p99)

(* Against nearest-rank on synthetic data: with fine buckets the
   interpolated estimate must sit within one bucket width of the exact
   empirical quantile. *)
let test_quantile_vs_nearest_rank () =
  let n = 1000 in
  (* Deterministic LCG samples in [0, 1). *)
  let seed = ref 20260808 in
  let next () =
    seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
    float_of_int !seed /. float_of_int 0x40000000
  in
  let samples = Array.init n (fun _ -> next ()) in
  let width = 0.01 in
  let bounds = List.init 100 (fun i -> float_of_int (i + 1) *. width) @ [ inf ] in
  let buckets =
    List.map
      (fun ub ->
        let lo = if ub = inf then 1.0 else ub -. width in
        let lo = if lo <= width /. 2. && ub <> inf then -1. else lo in
        (ub, Array.fold_left (fun acc x -> if x > lo && x <= ub then acc + 1 else acc) 0 samples))
      bounds
  in
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  List.iter
    (fun q ->
      let est = Obs.quantile ~q buckets in
      let rank = max 0 (min (n - 1) (int_of_float (Float.round (q *. float_of_int n)) - 1)) in
      let exact = sorted.(rank) in
      Alcotest.(check bool)
        (Printf.sprintf "q=%.2f estimate %.4f within a bucket of exact %.4f" q est exact)
        true
        (Float.abs (est -. exact) <= width +. 1e-9))
    [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99 ]

let test_fraction_le () =
  let b = [ (1., 1); (10., 2); (inf, 1) ] in
  Alcotest.(check (float 1e-12)) "at a bound" 0.25 (Obs.fraction_le b 1.0);
  Alcotest.(check (float 1e-12)) "at the top finite bound" 0.75 (Obs.fraction_le b 10.0);
  Alcotest.(check (float 1e-12)) "interpolates inside a bucket" 0.5 (Obs.fraction_le b 5.5);
  Alcotest.(check (float 1e-12)) "inside the first bucket" 0.125 (Obs.fraction_le b 0.5);
  Alcotest.(check (float 1e-12)) "overflow mass counts as greater" 0.75 (Obs.fraction_le b 1e9);
  Alcotest.(check bool) "empty is NaN" true (Float.is_nan (Obs.fraction_le [] 1.0));
  (* CDF inverts the quantile estimate (both use the same uniformity
     assumption), away from the degenerate overflow region. *)
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "fraction_le (quantile %.2f) = %.2f" q q)
        q
        (Obs.fraction_le b (Obs.quantile ~q b)))
    [ 0.1; 0.25; 0.5; 0.7 ]

(* ------------------------------------------------------------------ *)
(* Windowed time series and process gauges                             *)

let test_window_rejects_degenerate_capacity () =
  Alcotest.(check bool) "capacity < 2 rejected" true
    (try
       ignore (Obs.Window.create ~capacity:1 () : Obs.Window.t);
       false
     with Invalid_argument _ -> true)

let test_window_ring_eviction () =
  let w = Obs.Window.create ~capacity:3 () in
  Alcotest.(check int) "empty" 0 (Obs.Window.length w);
  for _ = 1 to 5 do
    Obs.Window.record w
  done;
  Alcotest.(check int) "bounded by capacity" 3 (Obs.Window.length w);
  Alcotest.(check int) "capacity preserved" 3 (Obs.Window.capacity w)

let test_window_stats () =
  with_enabled @@ fun () ->
  let c = Obs.Counter.create "test.win.ctr_total" in
  let h = Obs.Histogram.create ~buckets:[| 0.01; 0.1; 1. |] "test.win.lat" in
  let w = Obs.Window.create ~capacity:4 () in
  Alcotest.(check bool) "no stats on one sample" true
    (Obs.Window.record w; Obs.Window.stats w = None || Obs.Window.length w > 1);
  Obs.Counter.add c 10;
  Obs.Histogram.observe h 0.05;
  Obs.Histogram.observe h 0.05;
  (* The monotonic clock has ns resolution; burn a little time so the
     span between the two samples is strictly positive. *)
  let t0 = Obs.now_ns () in
  while Obs.now_ns () = t0 do () done;
  Obs.Window.record w;
  match Obs.Window.stats w with
  | None -> Alcotest.fail "two spaced samples must yield stats"
  | Some s ->
      Alcotest.(check int) "samples" 2 s.Obs.Window.samples;
      Alcotest.(check bool) "positive span" true (s.Obs.Window.span_s > 0.);
      Alcotest.(check (option int)) "counter delta in window" (Some 10)
        (Obs.counter_value s.Obs.Window.delta "test.win.ctr_total");
      (match List.assoc_opt "test.win.ctr_total" s.Obs.Window.rates with
      | Some r -> Alcotest.(check bool) "rate is positive" true (r > 0.)
      | None -> Alcotest.fail "rate missing for moved counter");
      (match List.assoc_opt "test.win.lat" s.Obs.Window.quantiles with
      | Some (p50, p95, p99) ->
          Alcotest.(check bool) "p50 in the observed bucket" true (p50 > 0.01 && p50 <= 0.1);
          Alcotest.(check bool) "windowed quantiles ordered" true (p50 <= p95 && p95 <= p99)
      | None -> Alcotest.fail "quantiles missing for moved histogram")

let test_process_gauges () =
  with_enabled @@ fun () ->
  Obs.Process.register ();
  Obs.Process.sample ();
  let snap = Obs.snapshot () in
  (match Obs.find snap "process.uptime_seconds" with
  | Some (Obs.Gauge_v u) -> Alcotest.(check bool) "uptime non-negative" true (u >= 0.)
  | _ -> Alcotest.fail "uptime gauge missing");
  (match Obs.find snap "process.max_rss_bytes" with
  | Some (Obs.Gauge_v r) -> Alcotest.(check bool) "rss positive on linux" true (r > 0.)
  | _ -> Alcotest.fail "rss gauge missing");
  let before = Option.value ~default:0 (Obs.counter_value snap "process.gc.allocated_words_total") in
  (* Allocate visibly, then resample: the allocation counter must advance. *)
  let junk = List.init 100_000 (fun i -> (i, float_of_int i)) in
  ignore (Sys.opaque_identity junk);
  Obs.Process.sample ();
  let after =
    Option.value ~default:0
      (Obs.counter_value (Obs.snapshot ()) "process.gc.allocated_words_total")
  in
  Alcotest.(check bool) "allocated words advanced" true (after > before)

(* ------------------------------------------------------------------ *)
(* OpenMetrics exposition                                              *)

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec scan i = i + m <= n && (String.sub haystack i m = needle || scan (i + 1)) in
  scan 0

let count_occurrences haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec scan i acc =
    if i + m > n then acc
    else scan (i + 1) (if String.sub haystack i m = needle then acc + 1 else acc)
  in
  if m = 0 then 0 else scan 0 0

let test_openmetrics_names () =
  Alcotest.(check string) "dots become underscores" "serve_ping_requests_total"
    (Obs.Openmetrics.metric_name "serve.ping.requests_total");
  Alcotest.(check string) "leading digit prefixed" "_9lives" (Obs.Openmetrics.metric_name "9lives");
  Alcotest.(check string) "empty name survives" "_" (Obs.Openmetrics.metric_name "");
  Alcotest.(check string) "legal charset untouched" "ok:name_2"
    (Obs.Openmetrics.metric_name "ok:name_2");
  Alcotest.(check string) "label escaping" "a\\\\b\\\"c\\nd"
    (Obs.Openmetrics.escape_label_value "a\\b\"c\nd")

let test_openmetrics_render () =
  with_enabled @@ fun () ->
  let c = Obs.Counter.create ~help:"reqs" "omr.requests_total" in
  Obs.Counter.add c 5;
  let g = Obs.Gauge.create "omr.temp" in
  Obs.Gauge.set g 1.5;
  let h = Obs.Histogram.create ~buckets:[| 1.; 10. |] "omr.lat" in
  List.iter (Obs.Histogram.observe h) [ 0.5; 5.; 100. ];
  let out = Obs.Openmetrics.render (Obs.snapshot ()) in
  List.iter
    (fun needle -> Alcotest.(check bool) (needle ^ " present") true (contains out needle))
    [
      (* Counter family drops _total in the header, the sample keeps it. *)
      "# TYPE omr_requests counter\n";
      "# HELP omr_requests reqs\n";
      "omr_requests_total 5\n";
      "# TYPE omr_temp gauge\n";
      "omr_temp 1.5\n";
      (* Exposition buckets are cumulative; +Inf equals _count. *)
      "# TYPE omr_lat histogram\n";
      "omr_lat_bucket{le=\"1\"} 1\n";
      "omr_lat_bucket{le=\"10\"} 2\n";
      "omr_lat_bucket{le=\"+Inf\"} 3\n";
      "omr_lat_sum 105.5\n";
      "omr_lat_count 3\n";
    ];
  let n = String.length out in
  Alcotest.(check string) "terminated by EOF marker" "# EOF\n" (String.sub out (n - 6) 6)

let test_openmetrics_extract () =
  with_enabled @@ fun () ->
  Obs.Counter.add (Obs.Counter.create "omx.ping.requests_total") 2;
  Obs.Counter.add (Obs.Counter.create "omx.sched.requests_total") 3;
  let extract name =
    match String.split_on_char '.' name with
    | [ "omx"; op; "requests_total" ] -> Some ("omx.requests_total", [ ("op", op) ])
    | _ -> None
  in
  let out = Obs.Openmetrics.render ~extract (Obs.snapshot ()) in
  Alcotest.(check int) "one family header for the merged series" 1
    (count_occurrences out "# TYPE omx_requests counter\n");
  Alcotest.(check bool) "ping series labelled" true
    (contains out "omx_requests_total{op=\"ping\"} 2\n");
  Alcotest.(check bool) "sched series labelled" true
    (contains out "omx_requests_total{op=\"sched\"} 3\n")

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "tf_obs"
    [
      ( "registry",
        [
          quick "counter and gauge" test_counter_and_gauge;
          quick "idempotent registration" test_registration_idempotent;
          quick "disabled is a no-op" test_disabled_is_noop;
          quick "histogram buckets" test_histogram_buckets;
          quick "snapshot and reset" test_snapshot_and_reset;
          quick "snapshot diff" test_snapshot_diff;
          quick "snapshot diff of a new metric" test_snapshot_diff_new_metric;
          quick "domain safety" test_domain_safety;
        ] );
      ( "estimators",
        [
          quick "one-bucket quantiles are exact" test_quantile_one_bucket;
          quick "quantiles are monotone in q" test_quantile_monotonic;
          quick "quantile tracks nearest-rank" test_quantile_vs_nearest_rank;
          quick "fraction_le CDF" test_fraction_le;
        ] );
      ( "window",
        [
          quick "degenerate capacity rejected" test_window_rejects_degenerate_capacity;
          quick "ring eviction bounds retention" test_window_ring_eviction;
          quick "windowed rates and quantiles" test_window_stats;
          quick "process and GC gauges" test_process_gauges;
        ] );
      ( "openmetrics",
        [
          quick "name sanitisation and label escaping" test_openmetrics_names;
          quick "exposition conventions" test_openmetrics_render;
          quick "extract folds labelled families" test_openmetrics_extract;
        ] );
      ( "trace",
        [
          quick "chrome trace JSON" test_trace_json;
          quick "inactive records nothing" test_trace_inactive_buffers_nothing;
          quick "spans merge across domains" test_trace_across_domains;
        ] );
    ]
