(* The simulate workload's process: [Tf_serving] driven as a library.

   Set-up fills [Tf_serving.Costs] for every traffic class (one
   [Transfusion.Decode.evaluate] each); the measured phase then repeats
   [Traffic.generate] + [Simulator.run] (continuous batching) on seeded
   bursty traces at 0.7x the estimated service rate.  The process writes
   "ready" on stdout when set-up is done, so the parent can time set-up
   from launch, and its results as JSON to a file when it exits. *)

module Json = Tf_experiments.Export.Json
module S = Tf_serving

let requests_per_trace = 400
let capacity = 16

let span name f = Tf_obs.Trace.with_span ~cat:"bench" name f

let gc_words () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words, s.Gc.minor_collections, s.Gc.major_collections)

let counter name = Option.value ~default:0 (Tf_obs.counter_value (Tf_obs.snapshot ()) name)

let setup () =
  let arch = Tf_arch.Presets.cloud and model = Tf_workloads.Presets.llama3 in
  let costs = S.Costs.create ~strategy:Transfusion.Strategies.Transfusion ~iterations:60 arch model in
  List.iter
    (fun (cls : S.Traffic.cls) ->
      Tf_obs.Trace.with_span ~cat:"bench"
        ~args:[ ("request_id", Printf.sprintf "setup-%d:%d" cls.S.Traffic.prompt cls.S.Traffic.gen) ]
        "costs.fill"
        (fun () -> ignore (S.Costs.costs costs ~cls)))
    S.Traffic.default_classes;
  costs

let check (r : S.Simulator.report) =
  let ordered (d : S.Simulator.dist) = d.S.Simulator.p50 <= d.S.Simulator.p95 && d.S.Simulator.p95 <= d.S.Simulator.p99 in
  List.length r.S.Simulator.completed + List.length r.S.Simulator.unfinished = requests_per_trace
  && ordered r.S.Simulator.ttft && ordered r.S.Simulator.tpot

let child ~seed ~seconds ~max_sims ~output ~traced ~setup_only ~trace_file =
  if traced then begin
    Tf_obs.set_enabled true;
    Tf_obs.Trace.start ()
  end;
  let decode0 = counter "decode.evaluations_total" and saved0 = counter "decode.searches_saved_total" in
  let t_setup = Host.now_s () in
  let costs = setup () in
  let setup_s = Host.now_s () -. t_setup in
  let decode_evals = counter "decode.evaluations_total" - decode0 in
  let searches_saved = counter "decode.searches_saved_total" - saved0 in
  print_endline "ready";
  if not setup_only then begin
    let _, _, computes_setup = S.Costs.stats costs in
    let classes = S.Traffic.default_classes in
    let rate_qps = 0.7 *. S.Exp_serving.service_rate ~costs ~classes ~capacity in
    let process = Option.get (S.Traffic.default_process "bursty") in
    let steps0 = counter "serving.steps_total" and pre0 = counter "serving.preemptions_total" in
    let words0, minor0, major0 = gc_words () in
    let cpu0 = Host.self_cpu_s () in
    let t0 = Host.now_s () in
    let deadline = t0 +. seconds in
    let sims = ref [] and failed = ref 0 and n = ref 0 and digest = Buffer.create 256 in
    while !n < max_sims && Host.now_s () < deadline do
      let i = !n in
      let s0 = Tf_obs.now_ns () in
      let report =
        Tf_obs.Trace.with_span ~cat:"bench" ~args:[ ("request_id", string_of_int i) ] "simulate.run"
          (fun () ->
            let trace =
              span "traffic.generate" (fun () ->
                  S.Traffic.generate ~classes ~seed:((seed * 1_000_003) + i) ~rate_qps
                    ~n:requests_per_trace process)
            in
            span "simulator.run" (fun () ->
                S.Simulator.run ~capacity ~costs ~policy:S.Policy.continuous trace))
      in
      sims := Int64.to_float (Int64.sub (Tf_obs.now_ns ()) s0) /. 1e3 :: !sims;
      if not (check report) then incr failed;
      (* The first reports, rendered, stand for the workload's output. *)
      if i < 8 then
        Buffer.add_string digest
          (Digest.to_hex (Digest.string (Json.to_line (S.Simulator.to_json ~per_request:false ~costs report))));
      incr n
    done;
    let wall = Host.now_s () -. t0 in
    let cpu = Host.self_cpu_s () -. cpu0 in
    let words1, minor1, major1 = gc_words () in
    let _, _, computes = S.Costs.stats costs in
    let layer_fields =
      if not traced then []
      else begin
        let spans = Spans.collect () in
        Spans.write_chrome trace_file spans;
        let reqs =
          Spans.requests spans ~root_name:"simulate.run" ~keep:(fun _ -> true)
        in
        Spans.print_table ~title:"measured simulations" (Spans.table reqs);
        let per_req name = Spans.layer_median reqs name /. float_of_int requests_per_trace in
        [
          ("traffic.generate_us_per_req", Json.Num (per_req "traffic.generate"));
          ("simulator.run_us_per_req", Json.Num (per_req "simulator.run"));
          ("simulator.steps", Json.Int (counter "serving.steps_total" - steps0));
          ("simulator.preemptions", Json.Int (counter "serving.preemptions_total" - pre0));
          ("decode.evaluations", Json.Int decode_evals);
          ("decode.searches_saved", Json.Int searches_saved);
        ]
      end
    in
    let simulated = !n * requests_per_trace in
    Json.write ~path:output
      (Json.Obj
         ([
            ("setup_s", Json.Num setup_s);
            ("sims", Json.Int !n);
            ("requests", Json.Int simulated);
            ("failed", Json.Int !failed);
            ("wall_s", Json.Num wall);
            ("cpu_s", Json.Num cpu);
            ("peak_rss_mb", Json.Num (Host.peak_rss_mb (Unix.getpid ())));
            ("sim_us", Json.List (List.rev_map (fun t -> Json.Num t) !sims));
            ("digest", Json.Str (Digest.to_hex (Digest.string (Buffer.contents digest))));
            ("costs_computes_setup", Json.Int computes_setup);
            ("costs_computes", Json.Int computes);
            ("gc_alloc_words", Json.Num (words1 -. words0));
            ("gc_minor", Json.Int (minor1 - minor0));
            ("gc_major", Json.Int (major1 - major0));
          ]
         @ layer_fields))
  end
