(* Tests for the serving simulator (lib/serving): traffic determinism,
   the qgen property suite (conservation, accounting, monotonicity,
   feasibility), the bit-for-bit differential against Decode's
   trapezoid metrics, the golden policy-comparison snapshot, the shape
   memo's churn/hit behaviour (including the hex-float disk round
   trip), and byte-identical reports across TRANSFUSION_JOBS. *)

module Traffic = Tf_serving.Traffic
module Costs = Tf_serving.Costs
module Policy = Tf_serving.Policy
module Simulator = Tf_serving.Simulator
module Strace = Tf_serving.Trace
module Exp_serving = Tf_serving.Exp_serving
module Model = Tf_workloads.Model
module Generation = Tf_workloads.Generation
module Decode = Transfusion.Decode
module Strategies = Transfusion.Strategies
module Tileseek = Transfusion.Tileseek
module Energy = Tf_costmodel.Energy
module Json = Tf_json

let tiny =
  Model.v ~name:"tiny" ~d_model:64 ~heads:2 ~head_dim:32 ~ffn_hidden:128 ~layers:2
    ~activation:Tf_einsum.Scalar_op.Gelu

let arch = Tf_arch.Presets.edge

(* Small shapes + searchless FuseMax keep every property case fast; one
   shared memo across cases keeps the whole suite O(distinct shapes). *)
let costs = Costs.create ~strategy:Strategies.Fusemax ~iterations:8 arch tiny

let cls prompt gen weight = { Traffic.prompt; gen; weight }
let small_classes = [ cls 32 8 3.; cls 64 16 2.; cls 128 32 1. ]

(* ------------------------------------------------------------------ *)
(* Traffic generation                                                  *)

let test_traffic_deterministic () =
  let gen () = Traffic.generate ~classes:small_classes ~seed:7 ~rate_qps:5. ~n:50 Traffic.Poisson in
  Alcotest.(check bool) "same seed, same trace" true (gen () = gen ());
  let other = Traffic.generate ~classes:small_classes ~seed:8 ~rate_qps:5. ~n:50 Traffic.Poisson in
  Alcotest.(check bool) "different seed, different trace" false (gen () = other)

let test_traffic_shapes () =
  List.iter
    (fun process ->
      let trace = Traffic.generate ~classes:small_classes ~seed:11 ~rate_qps:8. ~n:400 process in
      let rec monotone last = function
        | [] -> true
        | (r : Traffic.request) :: rest -> r.Traffic.arrival_s >= last && monotone r.Traffic.arrival_s rest
      in
      Alcotest.(check bool)
        (Traffic.process_name process ^ " arrivals monotone")
        true
        (monotone 0. trace.Traffic.requests);
      List.iteri
        (fun i (r : Traffic.request) -> Alcotest.(check int) "dense ids" i r.Traffic.id)
        trace.Traffic.requests;
      (* Long-run rate within a factor of the target (law of large
         numbers on 400 draws; the traces are fixed-seed, so this is
         deterministic, not flaky). *)
      let last = List.nth trace.Traffic.requests 399 in
      let empirical = 400. /. last.Traffic.arrival_s in
      Alcotest.(check bool)
        (Traffic.process_name process ^ " empirical rate sane")
        true
        (empirical > 4. && empirical < 16.))
    [
      Traffic.Poisson;
      Traffic.Bursty { mean_burst = 8; boost = 8. };
      Traffic.Diurnal { period_s = 16.; depth = 0.8 };
    ]

let test_parse_classes () =
  (match Traffic.parse_classes "256:64:3,1024:256:1" with
  | Ok [ a; b ] ->
      Alcotest.(check int) "prompt" 256 a.Traffic.prompt;
      Alcotest.(check int) "gen" 64 a.Traffic.gen;
      Alcotest.(check int) "prompt b" 1024 b.Traffic.prompt;
      Alcotest.(check (float 0.)) "weight" 1. b.Traffic.weight
  | Ok _ -> Alcotest.fail "wrong arity"
  | Error e -> Alcotest.fail e);
  List.iter
    (fun s ->
      match Traffic.parse_classes s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "256:64"; "0:64:1"; "256:-1:1"; "256:64:0"; "a:b:c" ]

(* ------------------------------------------------------------------ *)
(* Property suite (qgen)                                               *)

type sim_case = {
  c_seed : int;
  c_rate : float;
  c_n : int;
  c_policy : string;
  c_capacity : int;
  c_process : string;
  c_horizon : float option;
}

let print_case c =
  Printf.sprintf "{seed=%d; rate=%g; n=%d; policy=%s; capacity=%d; process=%s; horizon=%s}"
    c.c_seed c.c_rate c.c_n c.c_policy c.c_capacity c.c_process
    (match c.c_horizon with None -> "none" | Some h -> string_of_float h)

let gen_case r =
  {
    c_seed = Qgen.int r 1_000_000;
    c_rate = float_of_int (Qgen.range r 1 40);
    c_n = Qgen.range r 1 40;
    c_policy = Qgen.choose r [ "static"; "continuous"; "interleaved" ];
    c_capacity = Qgen.choose r [ 1; 2; 4; 8 ];
    c_process = Qgen.choose r [ "poisson"; "bursty"; "diurnal" ];
    c_horizon = (if Qgen.bool r then Some (float_of_int (Qgen.range r 1 5) /. 2.) else None);
  }

let shrink_case c =
  (if c.c_n > 1 then [ { c with c_n = c.c_n / 2 } ] else [])
  @ (if c.c_horizon <> None then [ { c with c_horizon = None } ] else [])
  @ if c.c_capacity > 1 then [ { c with c_capacity = c.c_capacity / 2 } ] else []

let run_case c =
  let process = Option.get (Traffic.default_process c.c_process) in
  let policy = Option.get (Policy.of_name c.c_policy) in
  let trace =
    Traffic.generate ~classes:small_classes ~seed:c.c_seed ~rate_qps:c.c_rate ~n:c.c_n process
  in
  (trace, Simulator.run ?horizon_s:c.c_horizon ~capacity:c.c_capacity ~costs ~policy trace)

let fail fmt = Printf.ksprintf failwith fmt

let test_conservation () =
  Qgen.run ~count:40 ~shrink:shrink_case ~print:print_case ~gen:gen_case
    "every request completes exactly once or is unfinished at horizon" (fun c ->
      let trace, report = run_case c in
      let all = List.map (fun (r : Traffic.request) -> r.Traffic.id) trace.Traffic.requests in
      let completed = List.map (fun (r : Simulator.record) -> r.Simulator.req.Traffic.id) report.Simulator.completed in
      let accounted = List.sort compare (completed @ report.Simulator.unfinished) in
      if accounted <> List.sort compare all then fail "ids not conserved";
      let finishes =
        List.filter (function Simulator.Finish _ -> true | _ -> false) report.Simulator.events
      in
      if List.length finishes <> List.length completed then
        fail "finish events (%d) disagree with completions (%d)" (List.length finishes)
          (List.length completed))

let test_accounting () =
  Qgen.run ~count:40 ~shrink:shrink_case ~print:print_case ~gen:gen_case
    "TTFT + gen * mean TPOT matches the event timeline" (fun c ->
      let _, report = run_case c in
      List.iter
        (fun (r : Simulator.record) ->
          let id = r.Simulator.req.Traffic.id in
          let gen = r.Simulator.req.Traffic.cls.Traffic.gen in
          let ttft = r.Simulator.first_token_s -. r.Simulator.req.Traffic.arrival_s in
          let tpot = (r.Simulator.finish_s -. r.Simulator.first_token_s) /. float_of_int gen in
          let span = r.Simulator.finish_s -. r.Simulator.req.Traffic.arrival_s in
          if Float.abs (ttft +. (float_of_int gen *. tpot) -. span) > 1e-6 then
            fail "request %d: ttft + gen*tpot drifts from the timeline" id;
          (* The record's timestamps are exactly what the event list
             says: prefill end = first token, last participating step
             end = finish, and the step count is the token count.  (The
             busy-step sum may undershoot the decode window — another
             request's exclusive prefill, or requeued time after a
             preemption, legitimately stretches the window.) *)
          let prefill_t1 =
            List.find_map
              (function
                | Simulator.Prefill { t1; id = pid; _ } when pid = id -> Some t1 | _ -> None)
              report.Simulator.events
          in
          if prefill_t1 <> Some r.Simulator.first_token_s then
            fail "request %d: first_token_s disagrees with its prefill event" id;
          let steps, dur, last_t1 =
            List.fold_left
              (fun (k, acc, last) e ->
                match e with
                | Simulator.Step { t0; t1; members } when List.mem_assoc id members ->
                    (k + 1, acc +. (t1 -. t0), t1)
                | _ -> (k, acc, last))
              (0, 0., Float.neg_infinity) report.Simulator.events
          in
          if steps <> gen then fail "request %d: %d steps for gen %d" id steps gen;
          if steps <> r.Simulator.n_steps then fail "request %d: n_steps miscounted" id;
          if not (Float.equal last_t1 r.Simulator.finish_s) then
            fail "request %d: finish_s disagrees with its last step" id;
          if
            not
              (List.exists
                 (function
                   | Simulator.Finish { t; id = fid } ->
                       fid = id && Float.equal t r.Simulator.finish_s
                   | _ -> false)
                 report.Simulator.events)
          then fail "request %d: no matching finish event" id;
          if dur > r.Simulator.finish_s -. r.Simulator.first_token_s +. 1e-6 then
            fail "request %d: busy steps exceed the decode window" id)
        report.Simulator.completed)

let test_monotone_time () =
  Qgen.run ~count:40 ~shrink:shrink_case ~print:print_case ~gen:gen_case
    "virtual time is monotone across the event sequence" (fun c ->
      let _, report = run_case c in
      let cursor =
        List.fold_left
          (fun cursor e ->
            match e with
            | Simulator.Prefill { t0; t1; _ } | Simulator.Step { t0; t1; _ } ->
                if t0 < cursor then fail "busy slice starts before the cursor";
                if t1 < t0 then fail "negative duration";
                t1
            | Simulator.Preempt { t; _ } | Simulator.Finish { t; _ } ->
                if t < cursor then fail "point event precedes the cursor";
                cursor)
          0. report.Simulator.events
      in
      if cursor > report.Simulator.makespan_s then fail "events extend past the makespan")

let buffer_elements = Tf_arch.Arch.buffer_elements arch

let test_feasibility () =
  Qgen.run ~count:30 ~shrink:shrink_case ~print:print_case ~gen:gen_case
    "steps never exceed capacity or buffer feasibility" (fun c ->
      let _, report = run_case c in
      (* Track per-request progress to recompute each member's cache
         length independently of the engine's bookkeeping. *)
      let progress = Hashtbl.create 32 in
      let prompt_of = Hashtbl.create 32 in
      List.iter
        (fun (r : Traffic.request) -> Hashtbl.replace prompt_of r.Traffic.id r.Traffic.cls.Traffic.prompt)
        report.Simulator.trace.Traffic.requests;
      List.iter
        (fun e ->
          match e with
          | Simulator.Step { members; _ } ->
              let batch = List.length members in
              if batch < 1 || batch > c.c_capacity then fail "batch %d outside capacity" batch;
              let ids = List.map fst members in
              if List.sort_uniq compare ids <> ids then fail "duplicate or unsorted members";
              List.iter
                (fun (id, kv) ->
                  let done_ = try Hashtbl.find progress id with Not_found -> 0 in
                  let expect = Hashtbl.find prompt_of id + done_ in
                  if kv <> expect then fail "request %d: recorded kv %d, expected %d" id kv expect;
                  Hashtbl.replace progress id (done_ + 1))
                members;
              let kv_max = List.fold_left (fun acc (_, kv) -> max acc kv) 0 members in
              (* Independent recomputation through the raw Table-2 path:
                 greedy decode tiling -> dims -> fits_decode. *)
              let w = Tf_workloads.Workload.v ~batch tiny ~seq_len:1 in
              let config = Tileseek.greedy ~kv_len:kv_max ~decode:true arch w in
              let dims = Tileseek.dims ~kv_len:kv_max arch w config in
              if not (Transfusion.Buffer_req.fits_decode ~buffer_elements dims) then
                fail "infeasible step admitted (batch %d, kv %d)" batch kv_max
          | _ -> ())
        report.Simulator.events)

(* ------------------------------------------------------------------ *)
(* Differential: a single-request static-batching trace reproduces
   Decode's trapezoid metrics bit-for-bit.                             *)

let test_differential_decode () =
  let prompt = 128 and gen = 16 in
  let iterations = 40 in
  let dcosts = Costs.create ~strategy:Strategies.Transfusion ~iterations arch tiny in
  let trace =
    Traffic.generate ~classes:[ cls prompt gen 1. ] ~seed:3 ~rate_qps:1. ~n:1 Traffic.Poisson
  in
  let report = Simulator.run ~capacity:4 ~costs:dcosts ~policy:Policy.static trace in
  let m, _ =
    Decode.evaluate ~tileseek_iterations:iterations arch
      (Generation.v ~batch:1 ~gen tiny ~prompt)
      Strategies.Transfusion
  in
  let r = match report.Simulator.completed with [ r ] -> r | _ -> Alcotest.fail "one request" in
  let exact what a b = Alcotest.(check bool) (what ^ " bit-for-bit") true (Float.equal a b) in
  (* The costs layer hands the engine Decode's floats unchanged... *)
  let pr = Costs.costs dcosts ~cls:(cls prompt gen 1.) in
  exact "costs ttft" m.Decode.ttft_s pr.Costs.ttft_s;
  exact "costs first token" m.Decode.token_s_first pr.Costs.token_s_first;
  exact "costs last token" m.Decode.token_s_last pr.Costs.token_s_last;
  exact "costs decode total" m.Decode.decode_s pr.Costs.decode_s;
  exact "costs energy/token" m.Decode.energy_per_token_pj pr.Costs.energy_per_token_pj;
  (* ... and the timeline advances by exactly those floats: each busy
     slice ends at [t0 +. cost] for the identical [cost] Decode reports
     (stated as the engine computes it — [t1 -. t0] would reintroduce
     rounding the engine never performs). *)
  exact "ttft" (r.Simulator.admitted_s +. m.Decode.ttft_s) r.Simulator.first_token_s;
  let steps =
    List.filter_map
      (function Simulator.Step { t0; t1; _ } -> Some (t0, t1) | _ -> None)
      report.Simulator.events
  in
  Alcotest.(check int) "gen steps" gen (List.length steps);
  let t0_first, t1_first = List.hd steps in
  exact "first-token step" (t0_first +. m.Decode.token_s_first) t1_first;
  let t0_last, t1_last = List.nth steps (gen - 1) in
  exact "last-token step" (t0_last +. m.Decode.token_s_last) t1_last;
  let prefill_pj = m.Decode.total_energy_pj -. Energy.total_pj m.Decode.decode_energy in
  exact "energy per request"
    (prefill_pj +. (float_of_int gen *. m.Decode.energy_per_token_pj))
    r.Simulator.energy_pj;
  Alcotest.(check int) "no preemption" 0 r.Simulator.preemptions;
  (* The discrete per-step sum also lands on the trapezoid closed form
     (the lerp sums exactly in the reals; 1e-9 absorbs FP). *)
  let sum = List.fold_left (fun acc (t0, t1) -> acc +. (t1 -. t0)) 0. steps in
  Alcotest.(check bool) "trapezoid" true (Float.abs (sum -. m.Decode.decode_s) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Memo churn / hit counters and the disk round trip                   *)

let test_memo_hits () =
  Tf_obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Tf_obs.set_enabled false) @@ fun () ->
  let fresh = Costs.create ~strategy:Strategies.Fusemax ~iterations:8 arch tiny in
  let before = Tf_obs.snapshot () in
  (* 30 lookups over 3 shapes: a 10x-requests-over-classes simulation in
     miniature — exactly 3 computes. *)
  for _ = 1 to 10 do
    List.iter (fun c -> ignore (Costs.costs fresh ~cls:c : Costs.per_request)) small_classes
  done;
  let after = Tf_obs.snapshot () in
  let get snap name = Option.value ~default:0 (Tf_obs.counter_value snap name) in
  let delta name = get after name - get before name in
  let entries, evictions, computes = Costs.stats fresh in
  Alcotest.(check int) "computes = distinct shapes" 3 computes;
  Alcotest.(check int) "entries" 3 entries;
  Alcotest.(check int) "no evictions" 0 evictions;
  Alcotest.(check int) "memo misses" 3 (delta "memo.serving.decode.misses_total");
  Alcotest.(check int) "memo hits" 27 (delta "memo.serving.decode.hits_total")

let test_memo_churn () =
  let fresh = Costs.create ~max_entries:4 ~strategy:Strategies.Fusemax ~iterations:8 arch tiny in
  let shapes = List.init 8 (fun i -> cls (16 * (i + 1)) 4 1.) in
  List.iter (fun c -> ignore (Costs.costs fresh ~cls:c : Costs.per_request)) shapes;
  let entries, evictions, computes = Costs.stats fresh in
  Alcotest.(check int) "computes = shapes" 8 computes;
  Alcotest.(check bool) "bounded" true (entries <= 4);
  Alcotest.(check bool) "evicted" true (evictions >= 4)

let test_disk_round_trip () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "tf-serving-cache-test" in
  let cache () = Tf_serve.Cache.create ~dir () in
  let cold = Costs.create ~cache:(cache ()) ~strategy:Strategies.Fusemax ~iterations:8 arch tiny in
  let a = List.map (fun c -> Costs.costs cold ~cls:c) small_classes in
  (* A fresh process: empty memory tier, rehydrates from disk — the
     hex-float codec must reproduce every value bit-for-bit, and the
     warm instance must run no Decode evaluation at all. *)
  let warm = Costs.create ~cache:(cache ()) ~strategy:Strategies.Fusemax ~iterations:8 arch tiny in
  let b = List.map (fun c -> Costs.costs warm ~cls:c) small_classes in
  Alcotest.(check bool) "rehydrated costs bit-identical" true (a = b);
  let _, _, computes = Costs.stats warm in
  Alcotest.(check int) "warm instance computes nothing" 0 computes

(* A current serve-cache entry: header, compact key line, payload. *)
let entry_lines path =
  match String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all) with
  | [ _header; key; payload; "" ] -> (key, payload)
  | _ -> Alcotest.failf "%s is not a transfusion.serve-cache/2 entry" path

let current_entry ~key payload =
  Printf.sprintf "{\"schema\":\"transfusion.serve-cache/2\",\"payload_bytes\":%d}\n%s\n%s\n"
    (String.length payload) key payload

let entry_paths dir =
  List.filter_map
    (fun f -> if Filename.check_suffix f ".json" then Some (Filename.concat dir f) else None)
    (List.sort compare (Array.to_list (Sys.readdir dir)))

let read path = In_channel.with_open_bin path In_channel.input_all
let write path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* Entries rehydrate bit-identical costs without a Decode evaluation,
   and a disk hit leaves its entry as it was written. *)
let test_disk_rehydration () =
  let dir = Filename.temp_file "tf-serving-rehydrate" "" in
  Sys.remove dir;
  let fresh () =
    Costs.create ~cache:(Tf_serve.Cache.create ~dir ()) ~strategy:Strategies.Fusemax ~iterations:8
      arch tiny
  in
  let cold = List.map (fun c -> Costs.costs (fresh ()) ~cls:c) small_classes in
  let paths = entry_paths dir in
  let current = List.map read paths in
  let warm = fresh () in
  let b = List.map (fun c -> Costs.costs warm ~cls:c) small_classes in
  Alcotest.(check bool) "rehydrated costs bit-identical" true (cold = b);
  let _, _, computes = Costs.stats warm in
  Alcotest.(check int) "warm instance computes nothing" 0 computes;
  Alcotest.(check (list string)) "entries unchanged on disk" current (List.map read paths);
  List.iter Sys.remove (Filename.concat dir ".keep" :: paths);
  Sys.rmdir dir

let test_disk_payload_missing_field () =
  (* A well-formed serve-cache entry whose payload lacks one field
     reads as a miss: the class is recomputed once,
     bit-identical to a cold run, never answered with a partial record. *)
  let dir = Filename.temp_file "tf-serving-partial" "" in
  Sys.remove dir;
  let c = cls 48 8 1. in
  let fresh () =
    Costs.create ~cache:(Tf_serve.Cache.create ~dir ()) ~strategy:Strategies.Fusemax ~iterations:8
      arch tiny
  in
  let cold = Costs.costs (fresh ()) ~cls:c in
  let entry =
    match entry_paths dir with
    | [ f ] -> f
    | fs -> Alcotest.failf "expected one disk entry, found %d" (List.length fs)
  in
  let drop_decode_s = function
    | Json.Obj kv -> Json.to_line (Json.Obj (List.remove_assoc "decode_s" kv))
    | _ -> Alcotest.fail "payload is not an object"
  in
  let key, payload = entry_lines entry in
  write entry (current_entry ~key (drop_decode_s (Json.parse payload)));
  let warm = fresh () in
  let recomputed = Costs.costs warm ~cls:c in
  let _, _, computes = Costs.stats warm in
  Alcotest.(check int) "partial payload recomputed" 1 computes;
  Alcotest.(check bool) "recomputed costs bit-identical to cold" true (cold = recomputed);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* ------------------------------------------------------------------ *)
(* Determinism across the domain pool                                  *)

let test_jobs_invariance () =
  let doc jobs =
    Tf_parallel.set_jobs jobs;
    Fun.protect ~finally:Tf_parallel.clear_jobs_override @@ fun () ->
    let fresh = Costs.create ~strategy:Strategies.Fusemax ~iterations:8 arch tiny in
    let points =
      Exp_serving.sweep ~seed:5 ~n:24 ~capacity:4 ~classes:small_classes ~costs:fresh ()
    in
    let trace =
      Traffic.generate ~classes:small_classes ~seed:5 ~rate_qps:4. ~n:24
        (Traffic.Bursty { mean_burst = 8; boost = 8. })
    in
    let report = Simulator.run ~capacity:4 ~costs:fresh ~policy:Policy.continuous trace in
    Json.to_string (Exp_serving.to_json ~costs:fresh points)
    ^ Json.to_string (Simulator.to_json ~costs:fresh report)
    ^ Json.to_string (Strace.document report)
  in
  Alcotest.(check string) "sequential = parallel, byte for byte" (doc 1) (doc 2)

(* ------------------------------------------------------------------ *)
(* Report documents: schema well-formedness                            *)

let sim_report =
  lazy
    (let trace =
       Traffic.generate ~classes:small_classes ~seed:9 ~rate_qps:6. ~n:30
         (Traffic.Bursty { mean_burst = 8; boost = 8. })
     in
     Simulator.run ~capacity:4 ~costs ~policy:Policy.continuous trace)

let member path fields =
  match List.assoc_opt path fields with
  | Some v -> v
  | None -> Alcotest.failf "missing field %s" path

let test_serving_schema () =
  let report = Lazy.force sim_report in
  match Json.parse (Json.to_string (Simulator.to_json ~costs report)) with
  | Json.Obj fields ->
      (match member "schema" fields with
      | Json.Str "transfusion.serving/1" -> ()
      | _ -> Alcotest.fail "bad schema tag");
      (match (member "ttft_s" fields, member "tpot_s" fields) with
      | Json.Obj t, Json.Obj _ -> (
          match (member "p50" t, member "p99" t) with
          | Json.Num p50, Json.Num p99 ->
              Alcotest.(check bool) "p99 >= p50 > 0" true (p99 >= p50 && p50 > 0.)
          | _ -> Alcotest.fail "percentiles not numbers")
      | _ -> Alcotest.fail "distributions not objects");
      (match member "per_request" fields with
      | Json.List rows ->
          Alcotest.(check int) "per-request rows" (List.length report.Simulator.completed)
            (List.length rows)
      | _ -> Alcotest.fail "per_request not a list")
  | _ -> Alcotest.fail "report not an object"

let test_trace_schema () =
  let report = Lazy.force sim_report in
  match Json.parse (Json.to_string (Strace.document report)) with
  | Json.Obj fields -> (
      (match member "schema" fields with
      | Json.Str "transfusion.simtrace/1" -> ()
      | _ -> Alcotest.fail "bad schema tag");
      match member "traceEvents" fields with
      | Json.List events ->
          let phases =
            List.filter_map
              (function
                | Json.Obj f -> (
                    match List.assoc_opt "ph" f with Some (Json.Str p) -> Some p | _ -> None)
                | _ -> None)
              events
          in
          Alcotest.(check bool) "has slices" true (List.mem "X" phases);
          Alcotest.(check bool) "has counters" true (List.mem "C" phases);
          Alcotest.(check bool) "has track metadata" true (List.mem "M" phases)
      | _ -> Alcotest.fail "traceEvents not a list")
  | _ -> Alcotest.fail "trace not an object"

(* ------------------------------------------------------------------ *)
(* Golden snapshot: seeded bursty policy comparison                    *)

let from_root = Sys.file_exists "test/golden"
let read_path name = Filename.concat (if from_root then "test/golden" else "golden") (name ^ ".json")
let source_path name =
  Filename.concat (if from_root then "test/golden" else "../../../test/golden") (name ^ ".json")

let regen = Sys.getenv_opt "GOLDEN_REGEN" <> None

(* Fixed seed on purpose: the golden document must not vary across the
   CI QGEN_SEED matrix. *)
let golden_points () = Exp_serving.sweep ~seed:42 ~n:48 ~capacity:4 ~classes:small_classes ~costs ()

let test_golden_serving () =
  let points = golden_points () in
  let doc = Exp_serving.to_json ~costs points in
  if regen then begin
    Json.write ~path:(source_path "serving") doc;
    Printf.printf "golden: regenerated %s\n" (source_path "serving")
  end
  else begin
    let golden =
      try Json.parse_file (read_path "serving")
      with Sys_error _ ->
        Alcotest.failf
          "golden file %s missing — regenerate with GOLDEN_REGEN=1 dune runtest and commit it"
          (read_path "serving")
    in
    let current = Json.parse (Json.to_string doc) in
    match Tjson.first_diff ~tol:1e-6 "serving" golden current with
    | [] -> ()
    | diff :: _ ->
        Alcotest.failf
          "golden mismatch: %s\n(intentional cost-model change? GOLDEN_REGEN=1 dune runtest)" diff
  end

let test_continuous_beats_static () =
  let points = golden_points () in
  let p95 policy =
    match
      List.find_opt
        (fun (p : Exp_serving.point) ->
          p.Exp_serving.load = "high" && p.Exp_serving.report.Simulator.policy = policy)
        points
    with
    | Some p -> p.Exp_serving.report.Simulator.ttft.Simulator.p95
    | None -> Alcotest.failf "no %s/high point" policy
  in
  Alcotest.(check bool) "continuous beats static on p95 TTFT at high load" true
    (p95 "continuous" < p95 "static")

(* ------------------------------------------------------------------ *)
(* Policy layer                                                        *)

let test_policies () =
  let view free running queued = { Policy.free_slots = free; running; queued } in
  Alcotest.(check int) "static waits for an empty batch" 0
    (Policy.static.Policy.admit (view 3 2 5));
  Alcotest.(check int) "static fills an idle accelerator" 3
    (Policy.static.Policy.admit (view 3 0 5));
  Alcotest.(check int) "continuous fills free slots" 3
    (Policy.continuous.Policy.admit (view 3 2 5));
  Alcotest.(check int) "continuous clamps to the queue" 2
    (Policy.continuous.Policy.admit (view 3 2 2));
  Alcotest.(check int) "interleaved admits one" 1
    (Policy.interleaved.Policy.admit (view 3 2 5));
  Alcotest.(check int) "interleaved respects a full batch" 0
    (Policy.interleaved.Policy.admit (view 0 4 5));
  List.iter
    (fun (p : Policy.t) ->
      match Policy.of_name p.Policy.name with
      | Some q -> Alcotest.(check string) "of_name round trip" p.Policy.name q.Policy.name
      | None -> Alcotest.failf "of_name %s" p.Policy.name)
    Policy.all

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.)) "p50 nearest rank" 50. (Simulator.percentile xs ~p:50.);
  Alcotest.(check (float 0.)) "p95" 95. (Simulator.percentile xs ~p:95.);
  Alcotest.(check (float 0.)) "p99" 99. (Simulator.percentile xs ~p:99.);
  Alcotest.(check (float 0.)) "empty" 0. (Simulator.percentile [] ~p:50.);
  Alcotest.(check (float 0.)) "singleton" 7. (Simulator.percentile [ 7. ] ~p:99.)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "tf_serving"
    [
      ( "traffic",
        [
          quick "deterministic per seed" test_traffic_deterministic;
          quick "arrival processes well-formed" test_traffic_shapes;
          quick "class-mix parser" test_parse_classes;
        ] );
      ( "properties",
        [
          quick "conservation" test_conservation;
          quick "accounting" test_accounting;
          quick "monotone time" test_monotone_time;
          quick "capacity and feasibility" test_feasibility;
        ] );
      ("differential", [ quick "single request equals Decode" test_differential_decode ]);
      ( "memo",
        [
          quick "hit counters" test_memo_hits;
          quick "bounded churn" test_memo_churn;
          quick "disk hex round trip" test_disk_round_trip;
          quick "disk payload missing a field" test_disk_payload_missing_field;
          quick "disk rehydration leaves entries unchanged" test_disk_rehydration;
        ] );
      ("determinism", [ quick "jobs invariance" test_jobs_invariance ]);
      ( "documents",
        [
          quick "serving/1 schema" test_serving_schema;
          quick "sim trace schema" test_trace_schema;
          quick "golden policy comparison" test_golden_serving;
          quick "continuous beats static at high load" test_continuous_beats_static;
        ] );
      ("policies", [ quick "admission rules" test_policies; quick "percentile" test_percentile ]);
    ]
