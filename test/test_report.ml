(* Tests for Tf_report, the simulation-telemetry layer: the Perfetto sim
   trace must reproduce the replay outcome's busy totals when its slice
   durations are folded per track, the rollup must account every cycle of
   every instance's span, the explain report must be deterministic for a
   fixed seed and round-trip through the JSON emitter, and the bench-diff
   comparator must understand both bench schemas. *)

module Explain = Tf_report.Explain
module Rollup = Tf_report.Rollup
module Convergence = Tf_report.Convergence
module Bench_diff = Tf_report.Bench_diff
module Json = Tf_json
module Sim = Transfusion.Pipeline_sim
module Mcts = Transfusion.Mcts
module Tileseek = Transfusion.Tileseek

let arch = Tf_arch.Presets.cloud
let workload = Tf_workloads.Workload.v Tf_workloads.Presets.bert ~seq_len:128
let iterations = 40
let seed = 42

(* One searched report shared by the explain tests (the search dominates
   the suite's cost); a second independent run feeds the determinism
   check. *)
let report = lazy (Explain.run ~iterations ~seed ~attention:Transfusion.Strategies.Self arch workload)

(* ------------------------------------------------------------------ *)
(* Sim trace *)

(* Walk the Tf_json trace document directly: fold "X" slice
   durations per thread id (tid 1 = 2D array, tid 2 = 1D array). *)
let slice_durations doc =
  let events =
    match doc with
    | Json.Obj fields -> (
        match List.assoc_opt "traceEvents" fields with
        | Some (Json.List evs) -> evs
        | _ -> Alcotest.fail "traceEvents missing")
    | _ -> Alcotest.fail "trace document is not an object"
  in
  List.filter_map
    (fun ev ->
      match ev with
      | Json.Obj f when List.assoc_opt "ph" f = Some (Json.Str "X") ->
          let num k =
            match List.assoc_opt k f with
            | Some (Json.Num v) -> v
            | Some (Json.Int v) -> float_of_int v
            | _ -> Alcotest.failf "slice field %s missing or non-numeric" k
          in
          Some (int_of_float (num "tid"), num "dur")
      | _ -> None)
    events

let test_trace_busy_matches_outcome () =
  let r = Lazy.force report in
  let durs = slice_durations (Explain.trace r) in
  let fold tid =
    List.fold_left (fun acc (t, d) -> if t = tid then acc +. d else acc) 0. durs
  in
  let check name expected got =
    Alcotest.(check bool)
      (Printf.sprintf "%s busy (%.1f vs %.1f)" name expected got)
      true
      (Float.abs (expected -. got) <= 1e-6 *. Float.max 1. expected)
  in
  check "2D" r.Explain.outcome.Sim.busy_2d_cycles (fold 1);
  check "1D" r.Explain.outcome.Sim.busy_1d_cycles (fold 2);
  Alcotest.(check int) "one slice per instance" r.Explain.outcome.Sim.instances
    (List.length durs)

(* The serialized trace must survive the repo's JSON reader (Tf_json)
   and carry the trace-event fields Perfetto requires. *)
let test_trace_schema_and_counters () =
  let r = Lazy.force report in
  let doc = Json.parse (Json.to_string (Explain.trace r)) in
  (match doc with
  | Json.Obj fields ->
      Alcotest.(check bool) "schema tag" true
        (List.assoc_opt "schema" fields = Some (Json.Str "transfusion.simtrace/1"));
      let events =
        match List.assoc_opt "traceEvents" fields with
        | Some (Json.List evs) -> evs
        | _ -> Alcotest.fail "traceEvents missing"
      in
      let phase ev =
        match ev with
        | Json.Obj f -> (
            match List.assoc_opt "ph" f with Some (Json.Str p) -> Some p | _ -> None)
        | _ -> None
      in
      Alcotest.(check bool) "counter samples present" true
        (List.exists (fun ev -> phase ev = Some "C") events);
      List.iter
        (fun ev ->
          match ev with
          | Json.Obj f ->
              let has k = List.mem_assoc k f in
              Alcotest.(check bool) "required trace-event fields" true
                (has "name" && has "ph" && has "pid" && has "tid");
              if phase ev = Some "X" then
                Alcotest.(check bool) "complete slices carry ts and dur" true
                  (has "ts" && has "dur")
          | _ -> Alcotest.fail "trace event is not an object")
        events
  | _ -> Alcotest.fail "trace document is not an object")

(* ------------------------------------------------------------------ *)
(* Rollup *)

let test_rollup_accounts_every_cycle () =
  let r = Lazy.force report in
  let roll = r.Explain.rollup in
  let sum f = List.fold_left (fun acc row -> acc +. f row) 0. roll.Rollup.rows in
  let close name a b =
    Alcotest.(check bool)
      (Printf.sprintf "%s (%.1f vs %.1f)" name a b)
      true
      (Float.abs (a -. b) <= 1e-6 *. Float.max 1. (Float.abs a))
  in
  close "row busy sums to array busy"
    (roll.Rollup.busy_2d_cycles +. roll.Rollup.busy_1d_cycles)
    (sum (fun (row : Rollup.row) -> row.Rollup.busy_cycles));
  close "dep wait total" roll.Rollup.dep_wait_cycles
    (sum (fun (row : Rollup.row) -> row.Rollup.dep_wait_cycles));
  close "resource wait total" roll.Rollup.resource_wait_cycles
    (sum (fun (row : Rollup.row) -> row.Rollup.resource_wait_cycles));
  (* Span accounting: busy + dep wait + resource wait over all events
     equals the summed spans — nothing unattributed. *)
  let spans = List.fold_left (fun acc e -> acc +. Sim.span e) 0. r.Explain.events in
  close "stall attribution covers every span" spans
    (roll.Rollup.busy_2d_cycles +. roll.Rollup.busy_1d_cycles
    +. roll.Rollup.dep_wait_cycles +. roll.Rollup.resource_wait_cycles);
  Alcotest.(check int) "instances" r.Explain.outcome.Sim.instances
    (sum (fun (row : Rollup.row) -> float_of_int row.Rollup.instances) |> int_of_float);
  List.iter
    (fun (row : Rollup.row) ->
      Alcotest.(check int)
        (Printf.sprintf "node %d instances split across arrays" row.Rollup.node)
        row.Rollup.instances
        (row.Rollup.on_2d + row.Rollup.on_1d))
    roll.Rollup.rows

let test_rollup_rows_sorted () =
  let roll = (Lazy.force report).Explain.rollup in
  let rec descending = function
    | (a : Rollup.row) :: (b : Rollup.row) :: rest ->
        a.Rollup.busy_cycles >= b.Rollup.busy_cycles && descending (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "rows descend by busy cycles" true (descending roll.Rollup.rows)

(* ------------------------------------------------------------------ *)
(* Explain: determinism + JSON round-trip *)

let test_explain_deterministic () =
  let a = Lazy.force report in
  let b = Explain.run ~iterations ~seed ~attention:Transfusion.Strategies.Self arch workload in
  Alcotest.(check string) "identical JSON for identical seed"
    (Json.to_string (Explain.to_json a))
    (Json.to_string (Explain.to_json b));
  Alcotest.(check string) "identical trace for identical seed"
    (Json.to_string (Explain.trace a))
    (Json.to_string (Explain.trace b))

let test_explain_json_roundtrip () =
  let r = Lazy.force report in
  let doc = Json.parse (Json.to_string (Explain.to_json r)) in
  Alcotest.(check string) "schema" "transfusion.explain/1"
    (Json.get_string (Json.member "schema" doc));
  let sched = Json.member "schedule" doc in
  Alcotest.(check (float 1e-6)) "sim makespan survives the round trip"
    r.Explain.outcome.Sim.makespan_cycles
    (Json.get_float (Json.member "sim_makespan_cycles" sched));
  let conv = Json.member "convergence" doc in
  (match r.Explain.convergence with
  | None -> Alcotest.fail "searched report must carry a convergence section"
  | Some c ->
      Alcotest.(check (float 0.)) "rollouts" (float_of_int c.Convergence.stats.Mcts.iterations)
        (Json.get_float (Json.member "rollouts" conv));
      Alcotest.(check (float 1e-9)) "best reward"
        c.Convergence.stats.Mcts.best_reward
        (Json.get_float (Json.member "best_reward" conv));
      Alcotest.(check int) "curve length" (List.length c.Convergence.points)
        (List.length (Json.get_list (Json.member "curve" conv))));
  let buffers = Json.member "buffers" doc in
  Alcotest.(check (float 1e-6)) "buffer capacity" r.Explain.capacity_elements
    (Json.get_float (Json.member "capacity_elements" buffers));
  Alcotest.(check int) "buffer rows" (List.length r.Explain.buffers)
    (List.length (Json.get_list (Json.member "modules" buffers)))

(* TransFusion serves the static layer-sequential execution when it beats
   the DPipe schedule; explain reports which one is served, with both
   per-layer makespans, in the table and in the JSON document. *)
let check_served ~expect arch w =
  let r = Explain.run ~iterations:60 ~seed ~attention:Transfusion.Strategies.Self arch w in
  let l = r.Explain.layer in
  let name = match l.Transfusion.Strategies.served with `Dpipe -> "dpipe" | `Static -> "static" in
  Alcotest.(check string) "served" expect name;
  let dp = l.Transfusion.Strategies.dpipe_cycles and st = l.Transfusion.Strategies.static_cycles in
  Alcotest.(check bool) "served makespan is the smaller" true
    (if expect = "static" then st < dp else dp <= st);
  let schedule = Json.member "schedule" (Json.parse (Json.to_string (Explain.to_json r))) in
  Alcotest.(check string) "JSON served" expect (Json.get_string (Json.member "served" schedule));
  Alcotest.(check (float 0.)) "JSON static makespan" st
    (Json.get_float (Json.member "static_makespan_cycles" schedule));
  let text = Explain.render r in
  let line = Printf.sprintf "served: %s (per layer: DPipe %.4e cycles, static %.4e cycles)" name dp st in
  Alcotest.(check bool) "render names the served execution" true
    (let n = String.length line in
     let rec go i = i + n <= String.length text && (String.sub text i n = line || go (i + 1)) in
     go 0)

let test_explain_served_static () =
  check_served ~expect:"static" Tf_arch.Presets.edge_32
    (Tf_workloads.Workload.v Tf_workloads.Presets.trxl ~seq_len:65536)

let test_explain_served_dpipe () =
  check_served ~expect:"dpipe" Tf_arch.Presets.cloud
    (Tf_workloads.Workload.v Tf_workloads.Presets.bert ~seq_len:4096)

let test_simulate_given_tiling () =
  let searched = Lazy.force report in
  let r =
    match
      Transfusion.Strategies.evaluate ~tiling:searched.Explain.tiling arch workload
        Transfusion.Strategies.Transfusion
    with
    | r, Some e -> Explain.of_execution r e
    | _, None -> Alcotest.fail "TransFusion returned no execution"
  in
  Alcotest.(check bool) "no convergence section without a search" true
    (r.Explain.convergence = None);
  Alcotest.(check (float 1e-6)) "same simulated makespan as the searched report"
    searched.Explain.outcome.Sim.makespan_cycles r.Explain.outcome.Sim.makespan_cycles

(* Explain reads the schedule its search priced: it runs exactly the
   schedules of the search itself, none of its own. *)
let test_explain_schedules_only_its_search () =
  Tf_obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Tf_obs.set_enabled false) @@ fun () ->
  let arch = Tf_arch.Presets.cloud in
  let w = Tf_workloads.Workload.v Tf_workloads.Presets.bert ~seq_len:4096 in
  let schedules f =
    Transfusion.Strategies.reset_registries ();
    let count () =
      Option.value ~default:0 (Tf_obs.counter_value (Tf_obs.snapshot ()) "dpipe.schedules_total")
    in
    let before = count () in
    f ();
    count () - before
  in
  let attention = Transfusion.Strategies.Self in
  let search =
    schedules (fun () ->
        ignore (Transfusion.Strategies.search ~iterations:60 ~seed ~attention arch w))
  in
  let explain =
    schedules (fun () -> ignore (Explain.run ~iterations:60 ~seed ~attention arch w : Explain.t))
  in
  Alcotest.(check bool) "the search schedules" true (search > 0);
  Alcotest.(check int) "explain schedules what its search does" search explain

(* ------------------------------------------------------------------ *)
(* Convergence (synthetic probes) *)

let probe rollout best terminals hits misses =
  {
    Tileseek.rollout;
    best_reward = best;
    terminals;
    tree_nodes = rollout;
    depth = 1;
    cost_memo_hits = hits;
    cost_memo_misses = misses;
  }

let stats ~iterations ~best =
  {
    Mcts.iterations;
    terminals_evaluated = iterations;
    best_reward = best;
    tree_nodes = iterations;
    max_depth = 3;
    mean_branching = 2.;
  }

let test_convergence_of_probes () =
  let probes =
    [
      probe 1 1.0 1 0 1;
      probe 2 1.0 2 1 1;
      probe 3 2.0 3 1 2;
      probe 4 2.0 4 2 2;
      probe 5 2.0 5 3 2;
    ]
  in
  let c = Convergence.of_probes ~seed:7 ~stats:(stats ~iterations:5 ~best:2.0) probes in
  Alcotest.(check (option int)) "converged at the first rollout reaching the final best"
    (Some 3) c.Convergence.converged_at;
  Alcotest.(check int) "memo hits from the last probe" 3 c.Convergence.memo_hits;
  Alcotest.(check int) "memo misses from the last probe" 2 c.Convergence.memo_misses;
  let rollouts = List.map (fun p -> p.Tileseek.rollout) c.Convergence.points in
  Alcotest.(check (list int)) "curve ascending and unique"
    (List.sort_uniq compare rollouts) rollouts

let test_convergence_thinning_keeps_improvements () =
  let probes =
    List.init 200 (fun i ->
        let rollout = i + 1 in
        let best = if rollout >= 150 then 3.0 else if rollout >= 50 then 2.0 else 1.0 in
        probe rollout best rollout 0 rollout)
  in
  let c =
    Convergence.of_probes ~max_points:16 ~seed:0 ~stats:(stats ~iterations:200 ~best:3.0) probes
  in
  let rollouts = List.map (fun p -> p.Tileseek.rollout) c.Convergence.points in
  List.iter
    (fun improvement ->
      Alcotest.(check bool)
        (Printf.sprintf "improvement at rollout %d survives thinning" improvement)
        true (List.mem improvement rollouts))
    [ 1; 50; 150 ];
  Alcotest.(check bool) "last point survives" true (List.mem 200 rollouts);
  Alcotest.(check bool) "thinned below the cap" true (List.length rollouts <= 32)

(* ------------------------------------------------------------------ *)
(* Bench diff *)

let micro name v = Json.Obj [ ("name", Json.Str name); ("ns_per_run", Json.Num v) ]
let figure name v = Json.Obj [ ("name", Json.Str name); ("wall_s", Json.Num v) ]

let bench_v1 ~figures ~microbench =
  Json.Obj
    [
      ("schema", Json.Str "transfusion-bench/v1");
      ("figures", Json.List figures);
      ("microbench", Json.List microbench);
    ]

let trajectory ~microbench ~wall =
  Json.Obj
    [
      ("schema", Json.Str "transfusion-bench-trajectory/v1");
      ( "current",
        Json.Obj [ ("microbench", Json.List microbench); ("quick_bench_wall_s", Json.Num wall) ] );
    ]

let test_bench_diff_matching () =
  let baseline =
    bench_v1
      ~figures:[ figure "fig7" 10.; figure "fig8" 5. ]
      ~microbench:[ micro "mcts" 100.; micro "dpipe" 50. ]
  in
  let current =
    bench_v1
      ~figures:[ figure "fig7" 25.; figure "fig9" 1. ]
      ~microbench:[ micro "mcts" 40.; micro "dpipe" 55. ]
  in
  let r = Bench_diff.compare_docs ~baseline current in
  Alcotest.(check int) "matched rows" 3 (List.length r.Bench_diff.rows);
  Alcotest.(check int) "one regression (fig7 at 2.5x)" 1 (List.length r.Bench_diff.regressions);
  Alcotest.(check bool) "has_regressions" true (Bench_diff.has_regressions r);
  Alcotest.(check int) "one improvement (mcts at 0.4x)" 1 (List.length r.Bench_diff.improvements);
  Alcotest.(check (list string)) "baseline-only names" [ "fig8" ] r.Bench_diff.missing_in_current;
  Alcotest.(check (list string)) "current-only names" [ "fig9" ] r.Bench_diff.missing_in_baseline;
  let fig7 = List.find (fun (row : Bench_diff.row) -> row.Bench_diff.name = "fig7") r.Bench_diff.rows in
  Alcotest.(check (float 1e-9)) "ratio" 2.5 fig7.Bench_diff.ratio

let test_bench_diff_threshold () =
  let baseline = bench_v1 ~figures:[ figure "fig7" 10. ] ~microbench:[] in
  let current = bench_v1 ~figures:[ figure "fig7" 25. ] ~microbench:[] in
  let r = Bench_diff.compare_docs ~threshold:3.0 ~baseline current in
  Alcotest.(check bool) "2.5x passes a 3x threshold" false (Bench_diff.has_regressions r);
  Alcotest.(check bool) "threshold below 1 rejected" true
    (try
       ignore (Bench_diff.compare_docs ~threshold:0.5 ~baseline current : Bench_diff.report);
       false
     with Invalid_argument _ -> true)

let test_bench_diff_fail_on_families () =
  (* --fail-on's library half: per-family prefix rules fire independently
     of the global threshold (warn-only CI still fails these). *)
  let baseline =
    bench_v1 ~figures:[]
      ~microbench:
        [ micro "dpipe/mha" 100.; micro "strategy/evaluate" 100.; micro "tensor/interp" 100. ]
  in
  let current =
    bench_v1 ~figures:[]
      ~microbench:
        [ micro "dpipe/mha" 130.; micro "strategy/evaluate" 120.; micro "tensor/interp" 300. ]
  in
  let r = Bench_diff.compare_docs ~threshold:1.5 ~baseline current in
  let rules = [ ("dpipe/", 1.25); ("strategy/", 1.25) ] in
  let failed = Bench_diff.strict_failures ~rules r in
  Alcotest.(check (list string))
    "only covered families past their ratio fail" [ "dpipe/mha" ]
    (List.map (fun (row : Bench_diff.row) -> row.Bench_diff.name) failed);
  Alcotest.(check (list string)) "no rules, no failures" []
    (List.map
       (fun (row : Bench_diff.row) -> row.Bench_diff.name)
       (Bench_diff.strict_failures ~rules:[] r))

let test_bench_diff_trajectory_schema () =
  let baseline = trajectory ~microbench:[ micro "mcts" 100. ] ~wall:10. in
  let current =
    bench_v1
      ~figures:[ figure "bench --quick (total)" 12. ]
      ~microbench:[ micro "mcts" 110. ]
  in
  let names = List.map (fun (e : Bench_diff.entry) -> e.Bench_diff.name) (Bench_diff.entries baseline) in
  Alcotest.(check (list string)) "trajectory entries" [ "mcts"; "bench --quick (total)" ] names;
  let r = Bench_diff.compare_docs ~baseline current in
  Alcotest.(check int) "cross-schema match by name" 2 (List.length r.Bench_diff.rows);
  Alcotest.(check bool) "within threshold" false (Bench_diff.has_regressions r)

let test_bench_diff_rejects_unknown_schema () =
  Alcotest.(check bool) "unknown schema raises Bad_json" true
    (try
       ignore (Bench_diff.entries (Json.Obj [ ("schema", Json.Str "nope/v0") ]) : Bench_diff.entry list);
       false
     with Json.Bad_json _ -> true)

let test_json_read_parses_emitter_output () =
  (* The reader must accept exactly what the deterministic emitter
     writes — escapes, nested containers, non-integral floats. *)
  let doc =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\nd");
        ("n", Json.Num 1.25e-3);
        ("i", Json.Int (-7));
        ("l", Json.List [ Json.Null; Json.Bool true; Json.Obj [ ("x", Json.Int 1) ] ]);
      ]
  in
  let back = Json.parse (Json.to_string doc) in
  Alcotest.(check string) "string escapes" "a\"b\\c\nd" (Json.get_string (Json.member "s" back));
  Alcotest.(check (float 1e-12)) "float" 1.25e-3 (Json.get_float (Json.member "n" back));
  Alcotest.(check (float 0.)) "negative int" (-7.) (Json.get_float (Json.member "i" back));
  Alcotest.(check int) "list" 3 (List.length (Json.get_list (Json.member "l" back)))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "tf_report"
    [
      ( "sim trace",
        [
          quick "slice durations fold to outcome busy" test_trace_busy_matches_outcome;
          quick "schema tag and counter track" test_trace_schema_and_counters;
        ] );
      ( "rollup",
        [
          quick "accounts every cycle" test_rollup_accounts_every_cycle;
          quick "rows sorted by busy" test_rollup_rows_sorted;
        ] );
      ( "explain",
        [
          quick "deterministic for a fixed seed" test_explain_deterministic;
          quick "JSON round trip" test_explain_json_roundtrip;
          quick "simulate with a given tiling" test_simulate_given_tiling;
          quick "reports static when static is served" test_explain_served_static;
          quick "reports dpipe when dpipe is served" test_explain_served_dpipe;
          quick "schedules only its search" test_explain_schedules_only_its_search;
        ] );
      ( "convergence",
        [
          quick "of_probes summary" test_convergence_of_probes;
          quick "thinning keeps improvements" test_convergence_thinning_keeps_improvements;
        ] );
      ( "bench diff",
        [
          quick "matching, regressions, missing names" test_bench_diff_matching;
          quick "threshold handling" test_bench_diff_threshold;
          quick "fail-on family rules" test_bench_diff_fail_on_families;
          quick "trajectory schema" test_bench_diff_trajectory_schema;
          quick "unknown schema rejected" test_bench_diff_rejects_unknown_schema;
          quick "reader accepts emitter output" test_json_read_parses_emitter_output;
        ] );
    ]
