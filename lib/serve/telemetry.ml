module Json = Tf_json

(* Windowed telemetry for the daemon: a background sampler feeding a
   {!Tf_obs.Window} ring (plus the process/GC gauges and the access-log
   flush), and the rendered payloads the [stats] and
   [metrics --format prometheus] wire ops answer with. *)

type t = {
  window : Tf_obs.Window.t;
  interval_s : float;
  mutable running : bool;
  mutable thread : Thread.t option;
  mutable on_tick : unit -> unit;
}

let create ?(window = 120) ?(interval_s = 1.0) () =
  if interval_s <= 0. then invalid_arg "Telemetry.create: interval_s must be > 0";
  Tf_obs.Process.register ();
  {
    window = Tf_obs.Window.create ~capacity:window ();
    interval_s;
    running = false;
    thread = None;
    on_tick = ignore;
  }

let on_tick t f = t.on_tick <- f

(* One sample: refresh process gauges first so the snapshot entering
   the ring carries them. *)
let sample_now t =
  Tf_obs.Process.sample ();
  Tf_obs.Window.record t.window

let start t =
  if t.thread = None then begin
    t.running <- true;
    sample_now t;
    t.thread <-
      Some
        (Thread.create
           (fun () ->
             while t.running do
               Thread.delay t.interval_s;
               if t.running then begin
                 sample_now t;
                 t.on_tick ()
               end
             done)
           ())
  end

let stop t =
  match t.thread with
  | None -> ()
  | Some th ->
      t.running <- false;
      Thread.join th;
      t.thread <- None

(* --- snapshot and stats payloads --------------------------------------- *)

let snapshot_json (snap : Tf_obs.snapshot) =
  let value = function
    | Tf_obs.Counter_v i -> Json.Int i
    | Tf_obs.Gauge_v f -> Json.Num f
    | Tf_obs.Histogram_v { count; sum; buckets } ->
        Json.Obj
          [
            ("count", Json.Int count);
            ("sum", Json.Num sum);
            ( "buckets",
              Json.List (List.map (fun (ub, n) -> Json.List [ Json.Num ub; Json.Int n ]) buckets) );
          ]
  in
  Json.Obj (List.map (fun (name, v) -> (name, value v)) snap)

(* NaN quantiles (a histogram whose windowed mass sits entirely in the
   overflow bucket) ride the emitter's NaN-as-null rule. *)
let stats_payload t =
  let current = Tf_obs.snapshot () in
  let only keep snap = snapshot_json (List.filter (fun (_, v) -> keep v) snap) in
  let windowed =
    match Tf_obs.Window.stats t.window with
    | None -> []
    | Some s ->
        [
          ("samples", Json.Int s.Tf_obs.Window.samples);
          ("span_s", Json.Num s.Tf_obs.Window.span_s);
          ("rates", Json.Obj (List.map (fun (n, r) -> (n, Json.Num r)) s.Tf_obs.Window.rates));
          ( "quantiles",
            Json.Obj
              (List.map
                 (fun (n, (p50, p95, p99)) ->
                   ( n,
                     Json.Obj
                       [ ("p50", Json.Num p50); ("p95", Json.Num p95); ("p99", Json.Num p99) ] ))
                 s.Tf_obs.Window.quantiles) );
          ( "histograms",
            only (function Tf_obs.Histogram_v _ -> true | _ -> false) s.Tf_obs.Window.delta );
        ]
  in
  Json.to_line
    (Json.Obj
       ([
          ("schema", Json.Str "transfusion.stats/1");
          ("window_capacity", Json.Int (Tf_obs.Window.capacity t.window));
          ("window_samples", Json.Int (Tf_obs.Window.length t.window));
        ]
       @ windowed
       @ [
           ("gauges", only (function Tf_obs.Gauge_v _ -> true | _ -> false) current);
           ("counters", only (function Tf_obs.Counter_v _ -> true | _ -> false) current);
         ]))

(* --- OpenMetrics payload --------------------------------------------- *)

(* Fold the per-op registry names into labelled families:
   [serve.ping.requests_total] -> [serve_requests_total{op="ping"}], so
   a scraper aggregates across endpoints with a label match instead of
   a name regex.  Anything else keeps its (sanitised) name. *)
let serve_extract name =
  match String.split_on_char '.' name with
  | [ "serve"; op; leaf ]
    when leaf = "requests_total" || leaf = "failures_total" || leaf = "latency_seconds" ->
      Some ("serve." ^ leaf, [ ("op", op) ])
  | _ -> None

let openmetrics () =
  Tf_obs.Process.sample ();
  Tf_obs.Openmetrics.render ~extract:serve_extract (Tf_obs.snapshot ())
