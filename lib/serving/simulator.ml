module Strategies = Transfusion.Strategies
module Json = Tf_json

type event =
  | Prefill of { t0 : float; t1 : float; id : int }
  | Step of { t0 : float; t1 : float; members : (int * int) list }
  | Preempt of { t : float; id : int }
  | Finish of { t : float; id : int }

type record = {
  req : Traffic.request;
  admitted_s : float;
  first_token_s : float;
  finish_s : float;
  n_steps : int;
  preemptions : int;
  energy_pj : float;
}

type dist = { p50 : float; p95 : float; p99 : float; mean : float; max : float }

type report = {
  policy : string;
  capacity : int;
  trace : Traffic.t;
  completed : record list;
  unfinished : int list;
  events : event list;
  queue_depth : (float * int) list;
  makespan_s : float;
  busy_s : float;
  pe_utilization : float;
  mean_batch : float;
  preemptions : int;
  steps : int;
  ttft : dist;
  tpot : dist;
  energy_per_request_pj : float;
  queue_depth_max : int;
  queue_depth_mean : float;
}

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)

let requests_c = Tf_obs.Counter.create ~help:"requests ingested by the simulator" "serving.requests_total"
let completions_c = Tf_obs.Counter.create ~help:"requests completed" "serving.completions_total"
let preemptions_c = Tf_obs.Counter.create ~help:"batch members evicted by KV growth" "serving.preemptions_total"
let steps_c = Tf_obs.Counter.create ~help:"decode steps executed" "serving.steps_total"

let batch_h =
  Tf_obs.Histogram.create ~help:"decode batch size per step"
    ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512. |]
    "serving.batch_size"

(* ------------------------------------------------------------------ *)
(* Distributions                                                       *)

let percentile xs ~p =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let n = List.length sorted in
      let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
      let rank = max 1 (min n rank) in
      List.nth sorted (rank - 1)

let dist_of xs =
  match xs with
  | [] -> { p50 = 0.; p95 = 0.; p99 = 0.; mean = 0.; max = 0. }
  | _ ->
      {
        p50 = percentile xs ~p:50.;
        p95 = percentile xs ~p:95.;
        p99 = percentile xs ~p:99.;
        mean = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs);
        max = List.fold_left Float.max neg_infinity xs;
      }

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

type item = {
  ireq : Traffic.request;
  pr : Costs.per_request;
  gen : int;
  mutable tokens_done : int;
  mutable admitted_s : float;
  mutable first_token_s : float;
  mutable ipreemptions : int;
  mutable in_steps : int;
}

(* Cache length the member's next decode step attends over; grows from
   [prompt] (the first step) as tokens land. *)
let kv_now it = it.ireq.Traffic.cls.Traffic.prompt + it.tokens_done

let run ?horizon_s ?(capacity = 16) ~costs ~(policy : Policy.t) (trace : Traffic.t) =
  if capacity < 1 then invalid_arg "Simulator.run: capacity < 1";
  let deepest =
    List.fold_left (fun acc (c : Traffic.cls) -> max acc (c.Traffic.prompt + c.Traffic.gen)) 0 trace.Traffic.classes
  in
  if not (Costs.fits costs ~batch:1 ~kv:deepest) then
    invalid_arg "Simulator.run: a single request of the deepest class does not fit the buffer";
  (* FIFO queue with front re-insertion (preemption): two-list deque. *)
  let q_front = ref [] and q_back = ref [] and qlen = ref 0 in
  let q_push_back x = q_back := x :: !q_back; incr qlen in
  let q_push_front x = q_front := x :: !q_front; incr qlen in
  let q_pop () =
    match !q_front with
    | x :: tl -> q_front := tl; decr qlen; Some x
    | [] -> (
        match List.rev !q_back with
        | [] -> None
        | x :: tl ->
            q_front := tl;
            q_back := [];
            decr qlen;
            Some x)
  in
  let q_peek () =
    match !q_front with
    | x :: _ -> Some x
    | [] -> ( match List.rev !q_back with [] -> None | (x :: _) as all -> q_front := all; q_back := []; Some x)
  in
  let arrivals = ref trace.Traffic.requests in
  (* Most-recently-admitted at the head — the preemption victim. *)
  let running = ref [] and nrunning = ref 0 in
  let t = ref 0. in
  let events = ref [] in
  let add e = events := e :: !events in
  let depths = ref [] in
  let sample () =
    match !depths with (_, d) :: _ when d = !qlen -> () | _ -> depths := (!t, !qlen) :: !depths
  in
  let busy = ref 0. in
  let step_weight = ref 0. and step_dur = ref 0. in
  let records = ref [] in
  let ingest () =
    let rec go () =
      match !arrivals with
      | r :: rest when r.Traffic.arrival_s <= !t ->
          arrivals := rest;
          Tf_obs.Counter.incr requests_c;
          q_push_back
            {
              ireq = r;
              pr = Costs.costs costs ~cls:r.Traffic.cls;
              gen = r.Traffic.cls.Traffic.gen;
              tokens_done = 0;
              admitted_s = Float.nan;
              first_token_s = Float.nan;
              ipreemptions = 0;
              in_steps = 0;
            };
          go ()
      | _ -> ()
    in
    go ()
  in
  let horizon_reached () = match horizon_s with Some h -> !t >= h | None -> false in
  let admit_one it =
    if it.tokens_done = 0 then begin
      (* First admission pays the prefill, exclusively: virtual time
         advances by the class's TTFT before any decode resumes. *)
      it.admitted_s <- !t;
      let t1 = !t +. it.pr.Costs.ttft_s in
      add (Prefill { t0 = !t; t1; id = it.ireq.Traffic.id });
      busy := !busy +. it.pr.Costs.ttft_s;
      t := t1;
      it.first_token_s <- t1
    end;
    (* Re-admission after preemption: the retained KV cache rejoins the
       batch at the next step with no extra prefill. *)
    running := it :: !running;
    incr nrunning
  in
  let admission () =
    let view = { Policy.free_slots = capacity - !nrunning; running = !nrunning; queued = !qlen } in
    let want = policy.Policy.admit view in
    let want = max 0 (min want (min view.Policy.free_slots view.Policy.queued)) in
    (* No policy may deadlock an idle accelerator over a non-empty queue. *)
    let want = if !nrunning = 0 && !qlen > 0 && want = 0 then 1 else want in
    let rec go k =
      if k > 0 then
        match q_peek () with
        | None -> ()
        | Some it ->
            let kv_max = List.fold_left (fun acc m -> max acc (kv_now m)) (kv_now it) !running in
            if !nrunning > 0 && not (Costs.fits costs ~batch:(!nrunning + 1) ~kv:kv_max) then ()
            else begin
              ignore (q_pop ());
              admit_one it;
              go (k - 1)
            end
    in
    go want
  in
  let preempt () =
    let rec go () =
      match !running with
      | victim :: _ :: _ when
            not
              (Costs.fits costs ~batch:!nrunning
                 ~kv:(List.fold_left (fun acc m -> max acc (kv_now m)) 0 !running)) ->
          running := List.tl !running;
          decr nrunning;
          victim.ipreemptions <- victim.ipreemptions + 1;
          Tf_obs.Counter.incr preemptions_c;
          add (Preempt { t = !t; id = victim.ireq.Traffic.id });
          q_push_front victim;
          go ()
      | _ -> ()
    in
    go ()
  in
  let step () =
    let members =
      List.sort (fun a b -> compare a.ireq.Traffic.id b.ireq.Traffic.id) !running
    in
    let dur =
      List.fold_left
        (fun acc it -> Float.max acc (Costs.token_s it.pr ~gen:it.gen ~i:(it.tokens_done + 1)))
        0. members
    in
    let t0 = !t and t1 = !t +. dur in
    add (Step { t0; t1; members = List.map (fun it -> (it.ireq.Traffic.id, kv_now it)) members });
    Tf_obs.Counter.incr steps_c;
    Tf_obs.Histogram.observe batch_h (float_of_int !nrunning);
    busy := !busy +. dur;
    step_weight := !step_weight +. (dur *. float_of_int !nrunning);
    step_dur := !step_dur +. dur;
    t := t1;
    List.iter
      (fun it ->
        it.tokens_done <- it.tokens_done + 1;
        it.in_steps <- it.in_steps + 1)
      members;
    let finished, alive = List.partition (fun it -> it.tokens_done >= it.gen) !running in
    running := alive;
    nrunning := List.length alive;
    List.iter
      (fun it ->
        Tf_obs.Counter.incr completions_c;
        add (Finish { t = t1; id = it.ireq.Traffic.id });
        records :=
          {
            req = it.ireq;
            admitted_s = it.admitted_s;
            first_token_s = it.first_token_s;
            finish_s = t1;
            n_steps = it.in_steps;
            preemptions = it.ipreemptions;
            energy_pj =
              it.pr.Costs.prefill_energy_pj
              +. (float_of_int it.gen *. it.pr.Costs.energy_per_token_pj);
          }
          :: !records)
      (List.sort (fun a b -> compare a.ireq.Traffic.id b.ireq.Traffic.id) finished)
  in
  let rec loop () =
    ingest ();
    if horizon_reached () then ()
    else if !nrunning = 0 && !qlen = 0 then
      match !arrivals with
      | [] -> ()
      | r :: _ ->
          let next = r.Traffic.arrival_s in
          if match horizon_s with Some h -> next >= h | None -> false then ()
          else begin
            t := Float.max !t next;
            loop ()
          end
    else begin
      sample ();
      admission ();
      sample ();
      if !nrunning = 0 then loop ()
      else begin
        preempt ();
        step ();
        loop ()
      end
    end
  in
  loop ();
  let completed = List.sort (fun (a : record) (b : record) -> compare a.req.Traffic.id b.req.Traffic.id) !records in
  let done_ids = Hashtbl.create 64 in
  List.iter (fun (r : record) -> Hashtbl.replace done_ids r.req.Traffic.id ()) completed;
  let unfinished =
    List.filter_map
      (fun (r : Traffic.request) ->
        if Hashtbl.mem done_ids r.Traffic.id then None else Some r.Traffic.id)
      trace.Traffic.requests
    |> List.sort compare
  in
  let makespan_s = !t in
  let queue_depth = List.rev !depths in
  let queue_depth_max = List.fold_left (fun acc (_, d) -> max acc d) 0 queue_depth in
  let queue_depth_mean =
    (* Each sample's depth holds until the next sample; the final one
       holds to the makespan. *)
    let rec weighted acc = function
      | (t0, d) :: ((t1, _) :: _ as rest) -> weighted (acc +. (float_of_int d *. (t1 -. t0))) rest
      | [ (t0, d) ] -> acc +. (float_of_int d *. (makespan_s -. t0))
      | [] -> acc
    in
    match queue_depth with
    | [] -> 0.
    | (t0, _) :: _ when makespan_s > t0 -> weighted 0. queue_depth /. (makespan_s -. t0)
    | _ -> 0.
  in
  let ttfts = List.map (fun (r : record) -> r.first_token_s -. r.req.Traffic.arrival_s) completed in
  let tpots =
    List.map (fun (r : record) -> (r.finish_s -. r.first_token_s) /. float_of_int r.req.Traffic.cls.Traffic.gen) completed
  in
  let mean xs = match xs with [] -> 0. | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
  {
    policy = policy.Policy.name;
    capacity;
    trace;
    completed;
    unfinished;
    events = List.rev !events;
    queue_depth;
    makespan_s;
    busy_s = !busy;
    pe_utilization = (if makespan_s > 0. then !busy /. makespan_s else 0.);
    mean_batch = (if !step_dur > 0. then !step_weight /. !step_dur else 0.);
    preemptions = List.fold_left (fun acc (r : record) -> acc + r.preemptions) 0 completed
                  + List.fold_left (fun acc it -> acc + it.ipreemptions) 0 !running;
    steps = List.length (List.filter (function Step _ -> true | _ -> false) !events);
    ttft = dist_of ttfts;
    tpot = dist_of tpots;
    energy_per_request_pj = mean (List.map (fun (r : record) -> r.energy_pj) completed);
    queue_depth_max;
    queue_depth_mean;
  }

(* ------------------------------------------------------------------ *)
(* Report document (schema transfusion.serving/1)                      *)

let dist_json d =
  Json.Obj
    [
      ("p50", Json.Num d.p50);
      ("p95", Json.Num d.p95);
      ("p99", Json.Num d.p99);
      ("mean", Json.Num d.mean);
      ("max", Json.Num d.max);
    ]

let record_json (r : record) =
  Json.Obj
    [
      ("id", Json.Int r.req.Traffic.id);
      ("prompt", Json.Int r.req.Traffic.cls.Traffic.prompt);
      ("gen", Json.Int r.req.Traffic.cls.Traffic.gen);
      ("arrival_s", Json.Num r.req.Traffic.arrival_s);
      ("admitted_s", Json.Num r.admitted_s);
      ("first_token_s", Json.Num r.first_token_s);
      ("finish_s", Json.Num r.finish_s);
      ("ttft_s", Json.Num (r.first_token_s -. r.req.Traffic.arrival_s));
      ("tpot_s", Json.Num ((r.finish_s -. r.first_token_s) /. float_of_int r.req.Traffic.cls.Traffic.gen));
      ("n_steps", Json.Int r.n_steps);
      ("preemptions", Json.Int r.preemptions);
      ("energy_pj", Json.Num r.energy_pj);
    ]

let to_json ?(per_request = true) ~costs (r : report) =
  let base =
    [
      ("schema", Json.Str "transfusion.serving/1");
      ("arch", Json.Str (Costs.arch costs).Tf_arch.Arch.name);
      ("model", Json.Str (Costs.model costs).Tf_workloads.Model.name);
      ("strategy", Json.Str (Strategies.name (Costs.strategy costs)));
      ("tileseek_iterations", Json.Int (Costs.iterations costs));
      ("policy", Json.Str r.policy);
      ("capacity", Json.Int r.capacity);
      ("seed", Json.Int r.trace.Traffic.seed);
      ("process", Json.Str (Traffic.process_name r.trace.Traffic.process));
      ("rate_qps", Json.Num r.trace.Traffic.rate_qps);
      ("requests", Json.Int (List.length r.trace.Traffic.requests));
      ("completed", Json.Int (List.length r.completed));
      ("unfinished", Json.Int (List.length r.unfinished));
      ("preemptions", Json.Int r.preemptions);
      ("steps", Json.Int r.steps);
      ("makespan_s", Json.Num r.makespan_s);
      ("busy_s", Json.Num r.busy_s);
      ("pe_utilization", Json.Num r.pe_utilization);
      ("mean_batch", Json.Num r.mean_batch);
      ("ttft_s", dist_json r.ttft);
      ("tpot_s", dist_json r.tpot);
      ("energy_per_request_pj", Json.Num r.energy_per_request_pj);
      ( "queue_depth",
        Json.Obj [ ("max", Json.Int r.queue_depth_max); ("mean", Json.Num r.queue_depth_mean) ] );
    ]
  in
  Json.Obj
    (if per_request then base @ [ ("per_request", Json.List (List.map record_json r.completed)) ]
     else base)
