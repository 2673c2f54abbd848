(* In-process replay of a daemon workload's request stream.

   [handle] answers one [schedule] request the way
   [Tf_serve.Server.handle_line] does, but composed from the layers'
   public functions so that each call can carry its own span: protocol
   parse, cache key, cache lookup (and, on a miss, Exp_common evaluate
   and API render), bucket interpolation, framing and the access log.
   The replay's responses must be byte-identical to the daemon's, which
   is what keeps this mirror honest.

   It runs in a fresh child process so that its state (every memo and
   registry in the library) starts as empty as the daemon's did. *)

module Json = Tf_experiments.Export.Json
module Exp_common = Tf_experiments.Exp_common
module Protocol = Tf_serve.Protocol
module Cache = Tf_serve.Cache

type config = { cache_entries : int; grid : int; disk : string option; access_log : string option }

type state = {
  config : config;
  cache : Cache.t;
  log : Tf_serve.Access_log.t option;
  cert_memo : (string, bool) Hashtbl.t;
  requests : Tf_obs.Counter.t;
  latency : Tf_obs.Histogram.t;
  tiers : (string, Cache.tier list) Hashtbl.t;  (** request id -> lookup tiers, latest first *)
}

let create config =
  Tf_obs.set_enabled true;
  {
    config;
    cache = Cache.create ~max_entries:config.cache_entries ?dir:config.disk ();
    log = Option.map (fun path -> Tf_serve.Access_log.create path) config.access_log;
    cert_memo = Hashtbl.create 16;
    (* The daemon's per-op instruments, found by name in the registry. *)
    requests = Tf_obs.Counter.create "serve.schedule.requests_total";
    latency = Tf_obs.Histogram.create "serve.schedule.latency_seconds";
    tiers = Hashtbl.create 1024;
  }

let span name f = Tf_obs.Trace.with_span ~cat:"bench" name f

let band_certified st arch (model : Tf_workloads.Model.t) ~batch ~lo ~hi =
  let key =
    Cache.fingerprint
      (Json.Obj
         [
           ("arch", Json.Str (Transfusion.Strategies.Private.arch_fingerprint arch));
           ("model", Json.Str model.Tf_workloads.Model.name);
           ("batch", Json.Int batch);
           ("lo", Json.Int lo);
           ("hi", Json.Int hi);
         ])
  in
  match Hashtbl.find_opt st.cert_memo key with
  | Some c -> c
  | None ->
      let c =
        span "verify.certify_range" (fun () ->
            match Tf_analysis.Verify.certify_range ~batch arch model ~lo ~hi ~step:(hi - lo) () with
            | cert -> cert.Tf_analysis.Range_cert.certified
            | exception _ -> false)
      in
      Hashtbl.replace st.cert_memo key c;
      c

let handle st line =
  let t0 = Tf_obs.now_ns () in
  let req, arch, model, seq, batch, strategy, iterations =
    span "protocol.parse" (fun () ->
        let req = Protocol.parse_request line in
        let b = req.Protocol.body in
        ( req,
          Protocol.arch_field b,
          Protocol.model_field b,
          Protocol.int_field b "seq" ~default:65536,
          Protocol.int_field b "batch" ~default:64,
          Protocol.strategy_field b ~default:Transfusion.Strategies.Transfusion,
          Protocol.int_field b "iterations" ~default:200 ))
  in
  Tf_obs.Counter.incr st.requests;
  let rid = match req.Protocol.id with Json.Str s -> s | id -> Json.to_line id in
  let fp = ref None in
  let report ~fp:f ~tier =
    fp := Some f;
    Hashtbl.replace st.tiers rid (tier :: Option.value ~default:[] (Hashtbl.find_opt st.tiers rid))
  in
  let compute_at seq_len =
    let w = Tf_workloads.Workload.v ~batch model ~seq_len in
    let key_json =
      span "cache.key" (fun () ->
          let key = Exp_common.cache_key ~tileseek_iterations:iterations arch w strategy in
          Json.Obj [ ("endpoint", Json.Str "schedule"); ("key", Exp_common.Key.to_json key) ])
    in
    span "cache.lookup" (fun () ->
        Cache.find_or_compute ~report st.cache ~key_json (fun () ->
            let r =
              span "exp_common.evaluate" (fun () ->
                  Exp_common.evaluate ~tileseek_iterations:iterations arch w strategy)
            in
            span "api.render" (fun () -> Json.to_line (Tf_serve.Api.result_json r))))
  in
  let grid = st.config.grid in
  let payload =
    if grid <= 0 || seq mod grid = 0 then compute_at seq
    else begin
      let lo = max grid (seq / grid * grid) in
      let hi = lo + grid in
      let p_lo = compute_at lo and p_hi = compute_at hi in
      span "api.interp" (fun () ->
          let lat_lo, en_lo = Tf_serve.Api.payload_costs p_lo in
          let lat_hi, en_hi = Tf_serve.Api.payload_costs p_hi in
          let f = float_of_int (seq - lo) /. float_of_int (hi - lo) in
          let lerp a b = a +. ((b -. a) *. f) in
          let bucket_seq, bucket = if hi - seq < seq - lo then (hi, p_hi) else (lo, p_lo) in
          let interpolation =
            Json.to_line
              (Json.Obj
                 [
                   ("seq_len", Json.Int seq);
                   ("lo", Json.Int lo);
                   ("hi", Json.Int hi);
                   ("bucket_seq_len", Json.Int bucket_seq);
                   ("latency_total_s", Json.Num (lerp lat_lo lat_hi));
                   ("energy_total_pj", Json.Num (lerp en_lo en_hi));
                   ("certified", Json.Bool (band_certified st arch model ~batch ~lo ~hi));
                 ])
          in
          Printf.sprintf
            "{\"schema\":\"transfusion.eval-interp/1\",\"bucket\":%s,\"interpolation\":%s}" bucket
            interpolation)
    end
  in
  let resp = span "protocol.frame" (fun () -> Protocol.ok_line ~id:req.Protocol.id ~op:"schedule" payload) in
  let t1 = Tf_obs.now_ns () in
  Tf_obs.Histogram.observe st.latency (Int64.to_float (Int64.sub t1 t0) /. 1e9);
  (match st.log with
  | None -> ()
  | Some log ->
      let tier =
        match Hashtbl.find_opt st.tiers rid with Some (t :: _) -> Cache.tier_name t | _ -> "null"
      in
      let ts_us = int_of_float (Unix.gettimeofday () *. 1e6) in
      span "access_log.write" (fun () ->
          Tf_serve.Access_log.write_record log (fun b ->
              Buffer.add_string b "{\"schema\":\"transfusion.access/1\",\"ts_us\":";
              Buffer.add_string b (string_of_int ts_us);
              Buffer.add_string b ",\"id\":\"";
              Buffer.add_string b rid;
              Buffer.add_string b "\",\"op\":\"schedule\",\"key\":\"";
              Buffer.add_string b (Option.value ~default:"" !fp);
              Buffer.add_string b "\",\"tier\":\"";
              Buffer.add_string b tier;
              Buffer.add_string b "\",\"latency_ns\":";
              Buffer.add_string b (Int64.to_string (Int64.sub t1 t0));
              Buffer.add_string b ",\"ok\":true}")));
  resp

(* [rid] is the request's id as the stream's generator wrote it; taking
   it from the caller keeps a second parse out of the root span. *)
let handle_request st ~rid line =
  Tf_obs.Trace.with_span ~cat:"bench" ~args:[ ("request_id", rid) ] "server.handle" (fun () ->
      handle st line)

(* --- the replay child ---------------------------------------------------- *)

(* Request ids: set-up requests carry these strings, measured requests
   their index as an integer. *)
let setup_id i = Printf.sprintf "setup-%d" i

(* Counters compared between the daemon and its replay. *)
let compared_counters =
  [
    "dpipe.candidates_total";
    "dpipe.pruned_total";
    "mcts.rollouts_total";
    "tileseek.cost_memo_misses_total";
    "strategies.eval_scores_total";
    "memo.serve.schedule.hits_total";
    "memo.serve.schedule.misses_total";
    "serve.cache.disk_hits_total";
    "serve.cache.disk_misses_total";
  ]

let counter_values () =
  let snap = Tf_obs.snapshot () in
  List.map
    (fun name -> (name, Option.value ~default:0 (Tf_obs.counter_value snap name)))
    compared_counters

(* Stream file: a header object, then the set-up lines, then the
   measured lines. *)
let write_stream path ~config ~setup ~measured =
  let oc = open_out_bin path in
  let opt = function Some s -> Json.Str s | None -> Json.Null in
  output_string oc
    (Json.to_line
       (Json.Obj
          [
            ("cache_entries", Json.Int config.cache_entries);
            ("grid", Json.Int config.grid);
            ("disk", opt config.disk);
            ("access_log", opt config.access_log);
            ("setup", Json.Int (List.length setup));
          ]));
  output_char oc '\n';
  List.iter (fun l -> output_string oc l; output_char oc '\n') (setup @ measured);
  close_out oc

let read_stream path =
  let lines = String.split_on_char '\n' (String.trim (Host.read_file path)) in
  let header = Tf_report.Json_read.parse (List.hd lines) in
  let module J = Tf_report.Json_read in
  let opt name = match J.member name header with J.Str s -> Some s | _ -> None in
  let config =
    {
      cache_entries = int_of_float (J.to_float (J.member "cache_entries" header));
      grid = int_of_float (J.to_float (J.member "grid" header));
      disk = opt "disk";
      access_log = opt "access_log";
    }
  in
  let n_setup = int_of_float (J.to_float (J.member "setup" header)) in
  let reqs = List.tl lines in
  (config, List.filteri (fun i _ -> i < n_setup) reqs, List.filteri (fun i _ -> i >= n_setup) reqs)

(* Replay a stream and write a JSON summary to [output]: per-request
   in-process times, response digests, compared counter deltas and, when
   [traced], the per-layer medians and table (plus a Chrome trace). *)
let child ~input ~output ~traced ~trace_file =
  let config, setup, measured = read_stream input in
  let st = create config in
  if traced then Tf_obs.Trace.start ();
  List.iteri (fun i l -> ignore (handle_request st ~rid:(setup_id i) l)) setup;
  let before = counter_values () in
  let times = ref [] and digests = ref [] in
  List.iteri
    (fun i l ->
      let t0 = Tf_obs.now_ns () in
      let resp = handle_request st ~rid:(string_of_int i) l in
      times := Int64.to_float (Int64.sub (Tf_obs.now_ns ()) t0) /. 1e3 :: !times;
      digests := Digest.to_hex (Digest.string resp) :: !digests)
    measured;
  let after = counter_values () in
  Option.iter Tf_serve.Access_log.close st.log;
  let counts =
    List.map2 (fun (name, a) (_, b) -> (name, Json.Int (b - a))) before after
  in
  let layer_fields =
    if not traced then []
    else begin
      let spans = Spans.collect () in
      Spans.write_chrome trace_file spans;
      let reqs =
        Spans.requests spans ~root_name:"server.handle" ~keep:(function
          | Some r -> not (String.starts_with ~prefix:"setup-" r)
          | None -> false)
      in
      let ((rows, residual, total) as tbl) = Spans.table reqs in
      Spans.print_table ~title:"measured requests" tbl;
      (* Lookup self time by answering tier: the request's lookups in
         start order pair with the tiers the cache reported, in order. *)
      let lookups tier =
        List.concat_map
          (fun (r : Spans.request) ->
            let rid = Option.value ~default:"" r.Spans.root.Spans.request in
            let tiers = List.rev (Option.value ~default:[] (Hashtbl.find_opt st.tiers rid)) in
            let spans = List.filter (fun s -> s.Spans.name = "cache.lookup") r.Spans.members in
            if List.length tiers <> List.length spans then []
            else
              List.filter_map
                (fun (t, s) -> if t = tier then Some s.Spans.self else None)
                (List.combine tiers spans))
          reqs
      in
      let med l = match l with [] -> 0. | l -> Host.median l in
      let m name = Spans.layer_median reqs name in
      let ms name = m name /. 1e3 in
      (* Band certificates are computed by set-up requests, so this one
         is over every call in the run. *)
      let certify_ms =
        med
          (List.filter_map
             (fun s -> if s.Spans.name = "verify.certify_range" then Some s.Spans.dur else None)
             (Array.to_list spans))
        /. 1e3
      in
      [
        ("server.handle_us", Json.Num (med (List.map (fun r -> r.Spans.root.Spans.dur) reqs)));
        ("server.residual_share", Json.Num (if total > 0. then residual /. total else 0.));
        ("protocol.parse_us", Json.Num (m "protocol.parse"));
        ("protocol.frame_us", Json.Num (m "protocol.frame"));
        ("cache.key_us", Json.Num (m "cache.key"));
        ("cache.lookup_memory_us", Json.Num (med (lookups Cache.Memory)));
        ("cache.lookup_disk_us", Json.Num (med (lookups Cache.Disk)));
        ("access_log.write_us", Json.Num (m "access_log.write"));
        ("api.render_us", Json.Num (m "api.render"));
        ("api.interp_us", Json.Num (m "api.interp"));
        ("exp_common.evaluate_ms", Json.Num (ms "exp_common.evaluate"));
        ("strategies.evaluate_ms", Json.Num (ms "strategy.evaluate"));
        ("tileseek.search_ms", Json.Num (ms "tileseek.search"));
        ("dpipe.schedule_ms", Json.Num (ms "dpipe.schedule"));
        ("verify.certify_range_ms", Json.Num certify_ms);
        ("layers_sum_us", Json.Num (List.fold_left (fun acc (_, v) -> acc +. v) residual rows));
        ("requests_total_us", Json.Num total);
      ]
    end
  in
  Json.write ~path:output
    (Json.Obj
       ([
          ("times_us", Json.List (List.rev_map (fun t -> Json.Num t) !times));
          ("digests", Json.List (List.rev_map (fun d -> Json.Str d) !digests));
          ("counts", Json.Obj counts);
        ]
       @ layer_fields))
