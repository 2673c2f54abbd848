(* The benchmark harness.

   Part 1 regenerates every table/figure of the paper's evaluation
   (Section 6.2) by running the full simulation sweep and printing the
   series the paper plots — Figures 8a/8b, 9a/9b, 10a/10b, 11, 12a/12b,
   13, plus the Section 6.2 headline geomeans.

   Part 2 runs Bechamel microbenchmarks of the framework's own algorithms
   (DPipe scheduling, bipartition enumeration, MCTS, TileSeek, the
   cascade interpreter, full strategy evaluations), so regressions in the
   scheduler itself are visible.

   Pass --quick to use the reduced sequence sweep.  Pass --json PATH to
   additionally write machine-readable timings (per-figure wall seconds,
   per-microbenchmark ns/run, the domain count) for BENCH_*.json perf
   trajectory tracking; the schema is documented in EXPERIMENTS.md.  With
   --json the dpipe/, strategy/ and tileseek/ entries, which CI's bench
   diff gates, are each the median of 5 passes.
   Pass --obs to enable the Tf_obs metrics registry during the run; the
   snapshot is embedded in the JSON under "metrics" (without --obs the
   section is present but empty, and the run is untouched — perf
   baselines stay comparable). *)

open Bechamel
open Toolkit
module E = Tf_experiments
module Strategies = Transfusion.Strategies

let quick = Array.exists (fun a -> a = "--quick") Sys.argv

let obs = Array.exists (fun a -> a = "--obs") Sys.argv

let () = if obs then Tf_obs.set_enabled true

let json_path =
  let n = Array.length Sys.argv in
  let rec scan i =
    if i >= n then None
    else if Sys.argv.(i) = "--json" && i + 1 < n then Some Sys.argv.(i + 1)
    else scan (i + 1)
  in
  scan 1

(* ------------------------------------------------------------------ *)
(* Part 1: the paper's figures                                         *)

let figure_steps () =
  let archs = [ Tf_arch.Presets.cloud; Tf_arch.Presets.edge ] in
  let llama3 = Tf_workloads.Presets.llama3 in
  [
    ( "fig8a",
      fun () ->
        E.Fig8_speedup.print
          ~title:"Fig 8a: Llama3 speedup over Unfused across sequence lengths (cloud, edge)"
          (E.Fig8_speedup.scaling ~quick archs llama3) );
    ( "fig8b",
      fun () ->
        E.Fig8_speedup.print ~title:"Fig 8b: model-wise speedup over Unfused at 64K (cloud)"
          (E.Fig8_speedup.model_wise Tf_arch.Presets.cloud) );
    ( "fig9a",
      fun () ->
        E.Fig9_pe_size.print ~title:"Fig 9a: Llama3 speedup, edge 2D PE 32x32 and 64x64"
          (E.Fig9_pe_size.scaling ~quick llama3) );
    ( "fig9b",
      fun () ->
        E.Fig9_pe_size.print
          ~title:"Fig 9b: model-wise speedup at 64K, edge 2D PE 32x32 and 64x64"
          (E.Fig9_pe_size.model_wise ()) );
    ( "fig10a",
      fun () ->
        E.Fig10_utilization.print ~title:"Fig 10a: 1D/2D PE utilization, Llama3 (cloud)"
          (E.Fig10_utilization.scaling ~quick Tf_arch.Presets.cloud llama3) );
    ( "fig10b",
      fun () ->
        E.Fig10_utilization.print ~title:"Fig 10b: 1D/2D PE utilization, models at 64K (cloud)"
          (E.Fig10_utilization.model_wise Tf_arch.Presets.cloud) );
    ( "fig11",
      fun () ->
        E.Fig11_contribution.print
          ~title:"Fig 11: per-layer speedup contribution, TransFusion over FuseMax (Llama3)"
          (E.Fig11_contribution.scaling ~quick archs llama3) );
    ( "fig12a",
      fun () ->
        E.Fig12_energy.print ~title:"Fig 12a: Llama3 energy vs Unfused (cloud, edge)"
          (E.Fig12_energy.scaling ~quick archs llama3) );
    ( "fig12b",
      fun () ->
        E.Fig12_energy.print ~title:"Fig 12b: model-wise energy vs Unfused at 64K (cloud)"
          (E.Fig12_energy.model_wise Tf_arch.Presets.cloud) );
    ( "fig13",
      fun () ->
        E.Fig13_breakdown.print
          ~title:"Fig 13: energy breakdown across the memory hierarchy (Llama3)"
          (E.Fig13_breakdown.scaling ~quick archs llama3) );
    ( "headline",
      fun () ->
        E.Exp_common.print_header "Section 6.2 headline geomeans (TransFusion vs baselines)";
        List.iter (fun arch -> E.Headline.print (E.Headline.compute ~quick arch)) archs );
    ( "generation",
      fun () ->
        E.Exp_generation.print
          ~title:"Autoregressive generation: TTFT / per-token latency / energy (cloud)"
          (E.Exp_generation.sweep ~quick [ Tf_arch.Presets.cloud ]
             [ Tf_workloads.Presets.bert; llama3 ]) );
    ( "serving",
      fun () ->
        let costs =
          Tf_serving.Costs.create ~strategy:Strategies.Transfusion
            ~iterations:(if quick then 30 else 60)
            Tf_arch.Presets.edge Tf_workloads.Presets.bert
        in
        Tf_serving.Exp_serving.print
          ~title:"Serving: admission policies x load (edge, BERT, bursty arrivals)"
          (Tf_serving.Exp_serving.sweep ~n:(if quick then 60 else 120) ~costs ()) );
  ]

(* Ablations and extension studies (DESIGN.md Section 4 and the paper's
   Section 3.2 composition claim). *)
let ablation_steps () =
  let t5 = Tf_workloads.Presets.t5 in
  let llama3 = Tf_workloads.Presets.llama3 in
  [
    ("ablation/dpipe", fun () -> E.Ablations.print_dpipe (E.Ablations.dpipe llama3));
    ( "ablation/tileseek",
      fun () -> E.Ablations.print_tileseek (E.Ablations.tileseek ~iterations:150 t5) );
    ( "ablation/sensitivity",
      fun () -> E.Ablations.print_sensitivity (E.Ablations.sensitivity llama3) );
    ("ablation/batch", fun () -> E.Ablations.print_batch (E.Ablations.batch t5));
    ("ablation/objectives", fun () -> E.Ablations.print_objectives (E.Ablations.objectives t5));
    ( "ablation/structures",
      fun () ->
        E.Exp_structures.print
          ~title:"Extension: encoder / decoder / encoder-decoder (edge, T5, 16K)"
          (E.Exp_structures.run Tf_arch.Presets.edge t5) );
    ( "ablation/roofline",
      fun () ->
        E.Exp_roofline.print ~title:"Analysis: per-module roofline classification (Llama3)"
          (E.Exp_roofline.run ~quick:true [ Tf_arch.Presets.cloud; Tf_arch.Presets.edge ] llama3)
    );
  ]

(* Run each step, recording wall time and — with --obs — the snapshot
   delta the step caused (per-step counters, not cumulative: each step's
   section shows only what that step did).  The printed output is exactly
   the step's own (no timing lines on stdout, so figure output is
   stable); per-step metric deltas go to stderr. *)
let run_timed steps =
  List.map
    (fun (name, step) ->
      let before = if obs then Tf_obs.snapshot () else [] in
      let t0 = Unix.gettimeofday () in
      step ();
      let wall = Unix.gettimeofday () -. t0 in
      let delta = if obs then Tf_obs.Snapshot.diff ~before (Tf_obs.snapshot ()) else [] in
      if obs && delta <> [] then
        Printf.eprintf "== %s (%.2fs)\n%s%!" name wall (Tf_obs.render_snapshot delta);
      (name, wall, delta))
    steps

(* ------------------------------------------------------------------ *)
(* Part 2: microbenchmarks of the framework itself                     *)

let workload = Tf_workloads.Workload.v Tf_workloads.Presets.bert ~seq_len:4096
let cloud = Tf_arch.Presets.cloud
let edge = Tf_arch.Presets.edge

(* The dpipe/ entries time a whole schedule from its DAG, the plan
   built inside the timed closure, as one schedule of a single search
   slice used to pay.  [static] schedules under FuseMax's fixed per-op
   assignment, as the FuseMax strategies do, instead of DPipe's own DP
   choice. *)
let mha_dag_bench ?(static = false) () =
  let cascade = Transfusion.Cascades.mha () in
  let { Transfusion.Layer_costs.load; matrix; dag = g; _ } =
    Transfusion.Layer_costs.problem workload cascade
  in
  let mode = if static then `Static (Strategies.fusemax_assign cloud cascade) else `Dp in
  fun () -> ignore (Transfusion.Dpipe.schedule ~mode cloud ~load ~matrix (Transfusion.Dpipe.plan g))

let full_layer_dag_bench () =
  let { Transfusion.Layer_costs.load; matrix; dag = g; _ } = Strategies.layer_problem workload in
  fun () -> ignore (Transfusion.Dpipe.schedule edge ~load ~matrix (Transfusion.Dpipe.plan g))

(* The load-dependent part alone: the plan is built in set-up, as a
   search shares one across its slices. *)
let full_layer_dag_planned_bench () =
  let { Transfusion.Layer_costs.load; matrix; plan; _ } = Strategies.layer_problem workload in
  fun () -> ignore (Transfusion.Dpipe.schedule edge ~load ~matrix plan)

let partition_bench () =
  let g = (Strategies.layer_problem workload).Transfusion.Layer_costs.dag in
  fun () -> ignore (Tf_dag.Partition.enumerate ~limit:512 g)

let mcts_bench () =
  let problem =
    {
      Transfusion.Mcts.actions = (fun path -> if List.length path < 3 then [ 0; 1; 2; 3 ] else []);
      reward = (fun path -> float_of_int (List.fold_left ( + ) 0 path));
    }
  in
  fun () ->
    let rng = Random.State.make [| 1 |] in
    ignore (Transfusion.Mcts.search ~rng ~iterations:100 problem)

let tileseek_search_bench () =
  (* The cost callback is the production scoring path (the prebuilt
     evaluation state of Strategies), so this measures what a search
     actually costs end-to-end — it used to rebuild the full-model phase
     list per candidate, which buried the search machinery itself. *)
  let evaluate = Strategies.Private.transfusion_scorer edge workload in
  fun () -> ignore (Transfusion.Tileseek.search ~iterations:100 edge workload ~evaluate ())

(* The seeds a search builds before it scores anything: every feasible
   (query tile, key/value tile) grid point completed by greedy growth,
   all Table 2 feasibility checks. *)
let grid_complete_bench () =
  let kv_len = workload.Tf_workloads.Workload.seq_len in
  fun () -> ignore (Transfusion.Tileseek.seeds ~kv_len ~decode:false edge workload)

let interp_bench () =
  let rng = Random.State.make [| 5 |] in
  let extents = Tf_einsum.Extents.of_list [ ("h", 2); ("e", 8); ("f", 8); ("p", 8); ("m0", 8) ] in
  let nd shape = Tf_tensor.Nd.random rng shape in
  let inputs =
    [
      ("Q", nd [| 2; 8; 8 |]);
      ("BK", nd [| 2; 8; 8 |]);
      ("BV", nd [| 2; 8; 8 |]);
      ("RM_prev", Tf_tensor.Nd.create [| 2; 8 |] Float.neg_infinity);
      ("RD_prev", Tf_tensor.Nd.create [| 2; 8 |] 0.);
      ("RNV_prev", Tf_tensor.Nd.create [| 2; 8; 8 |] 0.);
    ]
  in
  let cascade = Transfusion.Cascades.mha () in
  fun () -> ignore (Tf_tensor.Cascade_interp.run extents cascade ~inputs)

let streaming_attention_bench () =
  let rng = Random.State.make [| 6 |] in
  let q = Tf_tensor.Nd.random rng [| 16; 16 |] in
  let k = Tf_tensor.Nd.random rng [| 64; 16 |] in
  let v = Tf_tensor.Nd.random rng [| 64; 16 |] in
  fun () -> ignore (Tf_tensor.Attention.streaming_one_pass ~m0:16 ~q ~k ~v ())

(* After the first pass the process-wide [strategies.dpipe] memo answers
   every DPipe run of these evaluations (and of the phase build below),
   so they time the search and the scoring around a warm schedule memo,
   not a cold request. *)
let evaluate_bench strategy () =
 fun () -> ignore (Strategies.evaluate ~tileseek_iterations:30 edge workload strategy)

(* Fine-grained probes of the TileSeek evaluation hot path: one candidate
   scored through a prebuilt evaluation state (what each MCTS rollout
   pays after the per-m0 slice warms up), one full phase construction
   from a fresh evaluation state (slice derivation included, but its
   DPipe runs answered by the warm [strategies.dpipe] memo), and the
   latency roll-up over a full-model phase list on its own. *)
let tiling_cost_hot_bench () =
  let score = Strategies.Private.transfusion_scorer edge workload in
  let config = Transfusion.Tileseek.greedy edge workload in
  fun () -> ignore (score config : float)

let transfusion_phase_cold_bench () =
  let config = Transfusion.Tileseek.greedy edge workload in
  fun () -> ignore (Strategies.Private.transfusion_phase_cold edge workload config)

let latency_evaluate_bench () =
  let phases, _, _ =
    Strategies.phases ~tileseek_iterations:30 edge workload Strategies.Transfusion
  in
  fun () -> ignore (Tf_costmodel.Latency.evaluate edge phases)

(* One range certification versus the four point lints it subsumes: a
   serving system bucketing requests at 512-multiples up to 16K either
   certifies the band once or re-lints every bucket it actually sees.
   The point path re-derives what a lint of one concrete length needs —
   greedy tiling, Table 2 feasibility, the DPipe schedule — with no
   memoisation, matching what the certifier derives symbolically. *)
let cert_model = Tf_workloads.Presets.t5

let range_certify_bench () =
 fun () ->
  ignore
    (Tf_analysis.Range_cert.certify cloud cert_model
       { Tf_analysis.Range_cert.lo = 512; hi = 16384; step = 512 })

let point_lints_bench () =
  fun () ->
    List.iter
      (fun seq_len ->
        let w = Tf_workloads.Workload.v cert_model ~seq_len in
        let config = Transfusion.Tileseek.greedy ~kv_len:seq_len cloud w in
        ignore (Tf_analysis.Tiling_lint.verify ~kv_len:seq_len cloud w config);
        let { Transfusion.Layer_costs.load; matrix; plan; _ } = Strategies.layer_problem w in
        ignore (Transfusion.Dpipe.schedule cloud ~load ~matrix plan))
      [ 512; 2048; 8192; 16384 ]

(* One insertion past capacity into a full 1024-entry memo (the serve
   schedule tier's default size): every run publishes a fresh key and
   evicts the least-recently-used one. *)
let memo_churn_bench () =
  let m = Tf_parallel.Memo.create ~capacity:1024 () in
  for k = 0 to 1023 do
    ignore (Tf_parallel.Memo.find_or_compute m k (fun () -> k) : int)
  done;
  let next = ref 1024 in
  fun () ->
    let k = !next in
    incr next;
    ignore (Tf_parallel.Memo.find_or_compute m k (fun () -> k) : int)

let tests () =
  [
    Test.make ~name:"dpipe/mha-dag(cloud)" (Staged.stage (mha_dag_bench ()));
    Test.make ~name:"dpipe/mha-dag-static(cloud)" (Staged.stage (mha_dag_bench ~static:true ()));
    Test.make ~name:"dpipe/full-layer-dag(edge)" (Staged.stage (full_layer_dag_bench ()));
    Test.make ~name:"dpipe/full-layer-dag-planned(edge)"
      (Staged.stage (full_layer_dag_planned_bench ()));
    Test.make ~name:"dag/partition-enumerate(29)" (Staged.stage (partition_bench ()));
    Test.make ~name:"tileseek/mcts-100-iters" (Staged.stage (mcts_bench ()));
    Test.make ~name:"tileseek/search-100-iters(edge)" (Staged.stage (tileseek_search_bench ()));
    Test.make ~name:"tileseek/grid-complete(edge)" (Staged.stage (grid_complete_bench ()));
    Test.make ~name:"tensor/interp-mha-tile" (Staged.stage (interp_bench ()));
    Test.make ~name:"tensor/streaming-attention" (Staged.stage (streaming_attention_bench ()));
    Test.make ~name:"strategy/evaluate-fusemax" (Staged.stage (evaluate_bench Strategies.Fusemax ()));
    Test.make ~name:"strategy/evaluate-transfusion"
      (Staged.stage (evaluate_bench Strategies.Transfusion ()));
    Test.make ~name:"strategy/tiling-cost(hot)" (Staged.stage (tiling_cost_hot_bench ()));
    Test.make ~name:"strategy/transfusion-phase(cold)"
      (Staged.stage (transfusion_phase_cold_bench ()));
    Test.make ~name:"costmodel/latency-evaluate" (Staged.stage (latency_evaluate_bench ()));
    Test.make ~name:"cert/range-certify(T5,512:16384)" (Staged.stage (range_certify_bench ()));
    Test.make ~name:"cert/point-lints-x4(T5)" (Staged.stage (point_lints_bench ()));
    Test.make ~name:"parallel/memo-churn(1024)" (Staged.stage (memo_churn_bench ()));
  ]

(* One Bechamel pass over [tests]: (name, ns/run estimate, r-square) per
   entry, names prefixed by the group ("transfusion/"). *)
let measure tests =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"transfusion" tests) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols_result acc ->
      let estimate =
        match Analyze.OLS.estimates ols_result with Some (e :: _) -> e | _ -> Float.nan
      in
      (name, estimate, Analyze.OLS.r_square ols_result) :: acc)
    results []

(* The families CI's bench diff fails the build on.  One pass of these
   scatters by more than their 25% budget on a shared 2-core host, so
   with --json each is recorded as the median of [gated_repeats] passes
   (the pass whose estimate is the median, r-square included). *)
let gated_families = [ "transfusion/dpipe/"; "transfusion/strategy/"; "transfusion/tileseek/" ]
let gated_repeats = 5
let gated name = List.exists (fun prefix -> String.starts_with ~prefix name) gated_families

let median_pass passes name =
  let runs =
    List.sort
      (fun (_, a, _) (_, b, _) -> Float.compare a b)
      (List.concat_map (List.filter (fun (n, _, _) -> n = name)) passes)
  in
  List.nth runs (List.length runs / 2)

let microbench () =
  E.Exp_common.print_header "Microbenchmarks (Bechamel, ns per run)";
  let first = measure (tests ()) in
  let rows =
    if json_path = None then first
    else
      let repeats =
        List.filter (fun t -> gated ("transfusion/" ^ Test.name t)) (tests ())
      in
      let passes = first :: List.init (gated_repeats - 1) (fun _ -> measure repeats) in
      List.map
        (fun ((name, _, _) as row) -> if gated name then median_pass passes name else row)
        first
  in
  List.map
    (fun ((name, estimate, r_square) as row) ->
      Printf.printf "%-50s %16.1f ns/run%s%s\n" name estimate
        (match r_square with
        | Some r2 -> Printf.sprintf "   (r2=%.3f)" r2
        | None -> "")
        (if json_path <> None && gated name then
           Printf.sprintf "   (median of %d)" gated_repeats
         else "");
      row)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Part 3: the serve daemon's request path, in process.

   Drives [Tf_serve.Server.handle_line] directly (no socket, so this
   measures the scheduling service itself, not loopback I/O): one cold
   pass over distinct schedule keys that all miss the cache and run the
   search, then repeated warm rounds over the same keys that are
   answered from the schedule memo.  The issue's acceptance bar is warm
   >= 20x cold sustained qps; bench_diff gates [serve/qps-warm] so a
   regression in the cached answer path fails CI.  Hit/miss counts come
   from the Tf_obs registry ([memo.serve.schedule.*]), which
   [Server.create] enables. *)

let serve_bench () =
  E.Exp_common.print_header "Serve daemon: schedule requests per second (cold vs warm)";
  (* A truly cold start: earlier figure steps share Exp_common's summary
     cache, and a stray hit would understate the cold cost. *)
  E.Exp_common.reset_cache ();
  let server = Tf_serve.Server.create Tf_serve.Server.default_config in
  let requests =
    List.map
      (fun seq ->
        Printf.sprintf
          "{\"op\":\"schedule\",\"model\":\"BERT\",\"seq\":%d,\"batch\":8,\
           \"strategy\":\"transfusion\",\"iterations\":30}"
          seq)
      [ 1024; 2048; 3072; 4096; 5120; 6144 ]
  in
  let time_pass_on server reqs =
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun r ->
        let response = Tf_serve.Server.handle_line server r in
        (* A failing request would time error formatting, not scheduling. *)
        if not (String.length response > 0 && response.[0] = '{') then
          failwith ("serve bench: bad response: " ^ response))
      reqs;
    Unix.gettimeofday () -. t0
  in
  let time_pass = time_pass_on server in
  let count_misses () =
    Option.value ~default:0
      (Tf_obs.counter_value (Tf_obs.snapshot ()) "memo.serve.schedule.misses_total")
  in
  let n_cold = List.length requests in
  let cold_s = time_pass requests in
  (* Every cold key must actually have missed — a silent field-name or
     defaulting bug would collapse the keys and time the cache instead
     of the scheduler. *)
  if count_misses () <> n_cold then
    failwith
      (Printf.sprintf "serve bench: cold pass took %d misses for %d distinct keys"
         (count_misses ()) n_cold);
  (* Telemetry tax: the identical warm pass through a second server
     running the full observability pipeline — sampler thread feeding
     the stats window, process/GC gauges, a per-request access-log
     record.  The two servers are timed in interleaved blocks because
     the process drifts (heap growth, GC pressure) over the bench run:
     back-to-back measurement charges that drift entirely to whichever
     server runs second and can fabricate (or mask) tens of percent.
     Each block is scored separately and the per-server estimate is the
     fastest block: GC pauses and scheduler preemption only ever add
     time, so min-of-blocks converges on the true cost while a sum (or
     mean) inherits whichever outliers landed in it — on this runner
     the run-to-run spread of the summed estimate is 2-3x the effect
     being measured.  The issue's acceptance bar is <= 5% overhead on
     serve/qps-warm; bench_diff gates the absolute entry, and the
     in-bench check only trips on something structurally wrong (an
     accidental flush or sample per request), not runner jitter. *)
  let tmp_log = Filename.temp_file "tf_bench_access" ".log" in
  let t_server =
    Tf_serve.Server.create
      {
        Tf_serve.Server.default_config with
        access_log = Some tmp_log;
        sample_interval_s = 0.1;
      }
  in
  List.iter (fun r -> ignore (Tf_serve.Server.handle_line t_server r : string)) requests;
  Tf_serve.Telemetry.start (Tf_serve.Server.telemetry t_server);
  let warm_rounds = if quick then 800 else 2000 in
  let blocks = 10 in
  let block_reqs = List.concat (List.init (warm_rounds / blocks) (fun _ -> requests)) in
  (* One untimed block each so both servers enter measurement in the
     same steady state. *)
  ignore (time_pass block_reqs : float);
  ignore (time_pass_on t_server block_reqs : float);
  let warm_min = ref Float.infinity and tel_min = ref Float.infinity in
  for _ = 1 to blocks do
    warm_min := Float.min !warm_min (time_pass block_reqs);
    tel_min := Float.min !tel_min (time_pass_on t_server block_reqs)
  done;
  let warm_s = !warm_min and tel_s = !tel_min in
  Tf_serve.Telemetry.stop (Tf_serve.Server.telemetry t_server);
  (match Tf_serve.Server.access_log t_server with
  | Some log -> Tf_serve.Access_log.close log
  | None -> ());
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    (tmp_log :: List.init 8 (fun i -> Printf.sprintf "%s.%d" tmp_log (i + 1)));
  let n_warm = List.length block_reqs in
  let per_req ns total = ns *. 1e9 /. float_of_int total in
  let cold_ns = per_req cold_s n_cold
  and warm_ns = per_req warm_s n_warm
  and tel_ns = per_req tel_s n_warm in
  let qps n s = if s > 0. then float_of_int n /. s else Float.nan in
  Printf.printf "%-50s %16.1f ns/req   (%.1f qps, %d requests)\n" "serve/qps-cold" cold_ns
    (qps n_cold cold_s) n_cold;
  Printf.printf "%-50s %16.1f ns/req   (%.1f qps, %d requests)\n" "serve/qps-warm" warm_ns
    (qps n_warm warm_s) n_warm;
  let snap = Tf_obs.snapshot () in
  let count name = Option.value ~default:0 (Tf_obs.counter_value snap name) in
  let hits = count "memo.serve.schedule.hits_total" in
  let misses = count "memo.serve.schedule.misses_total" in
  Printf.printf "warm speedup %.1fx; schedule cache: %d hits, %d misses (hit rate %.3f)\n"
    (cold_ns /. warm_ns) hits misses
    (if hits + misses > 0 then float_of_int hits /. float_of_int (hits + misses) else 0.);
  let overhead = (tel_ns -. warm_ns) /. warm_ns *. 100. in
  Printf.printf "%-50s %16.1f ns/req   (%.1f qps, %d requests)\n" "serve/qps-warm-telemetry"
    tel_ns (qps n_warm tel_s) n_warm;
  Printf.printf "telemetry overhead on warm path: %+.1f%%\n" overhead;
  if overhead > 50. then
    failwith
      (Printf.sprintf "serve bench: telemetry overhead %.1f%% — per-request sampling or flushing?"
         overhead);
  [
    ("serve/qps-cold", cold_ns, None);
    ("serve/qps-warm", warm_ns, None);
    ("serve/qps-warm-telemetry", tel_ns, None);
  ]

(* ------------------------------------------------------------------ *)
(* Part 4: the continuous-batching simulator's steady state.

   Times full simulator runs over a seeded bursty trace with the shape
   memo already warm (the per-class TileSeek searches are paid untimed
   up front), so the entry isolates the engine itself — ingest, policy,
   feasibility-memo hits, step accounting — at its advertised
   O(distinct classes) cost.  bench_diff gates
   [serving/steady-state-qps]; losing the shape memo shows up as the
   per-request search cost (~1000x), not as percents. *)

let serving_bench () =
  E.Exp_common.print_header "Serving simulator: steady-state requests per second (warm memo)";
  let arch = edge in
  let model = Tf_workloads.Presets.bert in
  let costs = Tf_serving.Costs.create ~strategy:Strategies.Transfusion ~iterations:30 arch model in
  let classes = Tf_serving.Traffic.default_classes in
  List.iter
    (fun c -> ignore (Tf_serving.Costs.costs costs ~cls:c : Tf_serving.Costs.per_request))
    classes;
  let n = if quick then 400 else 2000 in
  let rate = 0.7 *. Tf_serving.Exp_serving.service_rate ~costs ~classes ~capacity:16 in
  let trace =
    Tf_serving.Traffic.generate ~classes ~seed:42 ~rate_qps:rate ~n
      (Tf_serving.Traffic.Bursty { mean_burst = 8; boost = 8. })
  in
  let run () =
    ignore
      (Tf_serving.Simulator.run ~capacity:16 ~costs ~policy:Tf_serving.Policy.continuous trace
        : Tf_serving.Simulator.report)
  in
  (* One untimed run warms the KV-feasibility memo the engine consults
     at every admission boundary. *)
  run ();
  let rounds = if quick then 3 else 10 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to rounds do
    run ()
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let total = rounds * n in
  let ns = wall *. 1e9 /. float_of_int total in
  Printf.printf "%-50s %16.1f ns/req   (%.0f req/s simulated, %d requests)\n"
    "serving/steady-state-qps" ns
    (float_of_int total /. wall)
    total;
  (* The advertised complexity must have held: a keying bug that made
     the memo miss would time 10k searches and call it the engine. *)
  let _, _, computes = Tf_serving.Costs.stats costs in
  if computes <> List.length classes then
    failwith
      (Printf.sprintf "serving bench: %d decode evaluations for %d distinct classes" computes
         (List.length classes));
  [ ("serving/steady-state-qps", ns, None) ]

(* ------------------------------------------------------------------ *)
(* JSON emission: the transfusion-bench/v1 document, whose metric
   sections render like the daemon's [metrics] op                      *)

let write_json path ~steps ~micro =
  let open Tf_json in
  let metrics snap = Tf_serve.Telemetry.snapshot_json snap in
  write ~path
    (Obj
       [
         ("schema", Str "transfusion-bench/v1");
         ("quick", Bool quick);
         ("jobs", Int (Tf_parallel.jobs ()));
         ( "figures",
           List
             (List.map
                (fun (name, wall_s, delta) ->
                  (* Per-step metric deltas (Tf_obs.Snapshot.diff), not
                     cumulative totals: each figure's section records
                     only what it did. *)
                  Obj
                    ([ ("name", Str name); ("wall_s", Num wall_s) ]
                    @ if delta = [] then [] else [ ("metrics", metrics delta) ]))
                steps) );
         ( "microbench",
           List
             (List.map
                (fun (name, ns, r2) ->
                  Obj
                    [
                      ("name", Str name);
                      ("ns_per_run", Num ns);
                      ("r_square", match r2 with Some r -> Num r | None -> Null);
                    ])
                micro) );
         ("metrics", metrics (if obs then Tf_obs.snapshot () else []));
       ])

let () =
  let steps = run_timed (figure_steps () @ ablation_steps ()) in
  let micro = microbench () in
  let micro = micro @ serve_bench () in
  let micro = micro @ serving_bench () in
  match json_path with
  | None -> ()
  | Some path ->
      write_json path ~steps ~micro;
      Printf.eprintf "bench: wrote %s\n%!" path
