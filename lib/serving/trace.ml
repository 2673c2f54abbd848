module Sim_trace = Tf_report.Sim_trace
module Json = Tf_json

let max_request_tracks = 256
let engine_tid = 1
let request_tid id = 100 + id
let us s = s *. 1e6

(* Consecutive decode steps with the same membership render as one
   slice: a steady batch is one span with a step count, not thousands
   of one-token slivers. *)
type run_acc = { r_t0 : float; r_t1 : float; r_ids : int list; r_steps : int }

let engine_spans (report : Simulator.report) =
  let flush acc spans =
    match acc with
    | None -> spans
    | Some a ->
        {
          Sim_trace.tid = engine_tid;
          span_label = Printf.sprintf "decode b=%d" (List.length a.r_ids);
          cat = "decode";
          ts_us = us a.r_t0;
          dur_us = us (a.r_t1 -. a.r_t0);
          span_args = [ ("batch", Json.Int (List.length a.r_ids)); ("steps", Json.Int a.r_steps) ];
        }
        :: spans
  in
  let acc, spans =
    List.fold_left
      (fun (acc, spans) (e : Simulator.event) ->
        match e with
        | Simulator.Step { t0; t1; members } -> (
            let ids = List.map fst members in
            match acc with
            | Some a when a.r_ids = ids && a.r_t1 = t0 ->
                (Some { a with r_t1 = t1; r_steps = a.r_steps + 1 }, spans)
            | _ -> (Some { r_t0 = t0; r_t1 = t1; r_ids = ids; r_steps = 1 }, flush acc spans))
        | Simulator.Prefill { t0; t1; id } ->
            ( None,
              {
                Sim_trace.tid = engine_tid;
                span_label = Printf.sprintf "prefill #%d" id;
                cat = "prefill";
                ts_us = us t0;
                dur_us = us (t1 -. t0);
                span_args = [ ("id", Json.Int id) ];
              }
              :: flush acc spans )
        | Simulator.Preempt _ | Simulator.Finish _ -> (acc, spans))
      (None, []) report.Simulator.events
  in
  List.rev (flush acc spans)

let request_spans (report : Simulator.report) =
  let phase tid label cat t0 t1 args =
    { Sim_trace.tid; span_label = label; cat; ts_us = us t0; dur_us = us (t1 -. t0); span_args = args }
  in
  List.concat_map
    (fun (r : Simulator.record) ->
      let id = r.Simulator.req.Traffic.id in
      if id >= max_request_tracks then []
      else
        let tid = request_tid id in
        [
          phase tid "queued" "queue" r.Simulator.req.Traffic.arrival_s r.Simulator.admitted_s [];
          phase tid "prefill" "prefill" r.Simulator.admitted_s r.Simulator.first_token_s [];
          phase tid "decode" "decode" r.Simulator.first_token_s r.Simulator.finish_s
            [
              ("n_steps", Json.Int r.Simulator.n_steps);
              ("preemptions", Json.Int r.Simulator.preemptions);
            ];
        ])
    report.Simulator.completed

let document (report : Simulator.report) =
  let tracks =
    (engine_tid, "serving engine (sim)")
    :: List.filter_map
         (fun (r : Simulator.record) ->
           let id = r.Simulator.req.Traffic.id in
           if id >= max_request_tracks then None
           else
             Some
               ( request_tid id,
                 Printf.sprintf "req #%d (%d+%d)" id r.Simulator.req.Traffic.cls.Traffic.prompt
                   r.Simulator.req.Traffic.cls.Traffic.gen ))
         report.Simulator.completed
  in
  let queue_depth =
    List.map (fun (t, d) -> (us t, float_of_int d)) report.Simulator.queue_depth
  in
  let batch_size =
    (* Sampled at step starts (deduplicated while flat), closed at the
       makespan so the series drops to idle. *)
    let samples =
      List.fold_left
        (fun acc (e : Simulator.event) ->
          match e with
          | Simulator.Step { t0; members; _ } -> (
              let b = float_of_int (List.length members) in
              match acc with (_, b0) :: _ when b0 = b -> acc | _ -> (us t0, b) :: acc)
          | _ -> acc)
        [] report.Simulator.events
    in
    List.rev ((us report.Simulator.makespan_s, 0.) :: samples)
  in
  let elided =
    List.length
      (List.filter
         (fun (r : Simulator.record) -> r.Simulator.req.Traffic.id >= max_request_tracks)
         report.Simulator.completed)
  in
  Sim_trace.spans_document
    ~name:(Printf.sprintf "transfusion serving (%s)" report.Simulator.policy)
    ~other_data:
      [
        ("clock", Json.Str "virtual seconds (1 trace us = 1 us)");
        ("policy", Json.Str report.Simulator.policy);
        ("capacity", Json.Int report.Simulator.capacity);
        ("seed", Json.Int report.Simulator.trace.Traffic.seed);
        ("process", Json.Str (Traffic.process_name report.Simulator.trace.Traffic.process));
        ("rate_qps", Json.Num report.Simulator.trace.Traffic.rate_qps);
        ("requests", Json.Int (List.length report.Simulator.trace.Traffic.requests));
        ("request_tracks_elided", Json.Int elided);
      ]
    ~tracks
    ~spans:(engine_spans report @ request_spans report)
    ~counters:[ ("queue_depth", queue_depth); ("batch_size", batch_size) ]
    ()
