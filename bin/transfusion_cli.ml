(* Command-line driver for the TransFusion framework.

   Subcommands:
     eval      evaluate one (arch, model, seq, strategy) point
     sweep     speedup table across the sequence sweep
     decode    autoregressive serving sweep (prefill + KV-cache decode)
     search    run TileSeek and report the chosen tiling
     schedule  show the DPipe schedule of the fused layer
     explain   simulate the TransFusion schedule and report bottlenecks
     simulate  serve a seeded arrival stream (continuous batching simulator)
     serve     persistent scheduling daemon (NDJSON over a Unix socket)
     figures   regenerate the paper's figures (also see bench/main.exe) *)

open Cmdliner
module Strategies = Transfusion.Strategies
module Latency = Tf_costmodel.Latency
module Energy = Tf_costmodel.Energy
module Json = Tf_json
module Request = Tf_serve.Request

(* Every file-output flag below accepts "-" to mean stdout: JSON goes to
   stdout verbatim (nothing else is printed around it), a real path gets
   a confirmation line on stderr.  One helper so the convention cannot
   drift between subcommands. *)
let emit ~what path contents =
  if String.equal path "-" then print_string contents
  else begin
    Json.write_file ~path contents;
    Fmt.epr "%s written to %s@." what path
  end

let emit_json ~what path doc = emit ~what path (Json.to_string doc)

(* The request table's entries as Cmdliner arguments: the flags,
   defaults, preset errors and [>= 1] checks the daemon's [schedule],
   [explain] and [decode] read, defined once in {!Tf_serve.Request}. *)
let preset_conv (p : _ Request.preset) =
  let parse s = Result.map_error (fun m -> `Msg m) (Request.parse_preset p s) in
  Arg.conv (parse, fun ppf v -> Fmt.string ppf (p.Request.name v))

let count_conv key =
  let parse s =
    Result.bind (Arg.conv_parser Arg.int s) (fun n ->
        Result.map_error (fun m -> `Msg m) (Request.check_count key n))
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

(* The CLI's own flags, which no request carries, refuse a count below 1
   or a non-positive period or rate the same way. *)
let count_opt name ~default ~doc =
  Arg.(value & opt (count_conv name) default & info [ name ] ~docv:"N" ~doc)

let positive_float_conv key =
  let parse s =
    Result.bind (Arg.conv_parser Arg.float s) (fun x ->
        if x > 0. then Ok x else Error (`Msg (Printf.sprintf "%s must be > 0 (got %g)" key x)))
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

(* A fraction strictly between 0 and 1: [top --slo-target]. *)
let fraction_conv =
  let parse s =
    Result.bind (Arg.conv_parser Arg.float s) (fun x ->
        if x > 0. && x < 1. then Ok x
        else Error (`Msg (Printf.sprintf "slo-target must be in (0, 1) (got %g)" x)))
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

(* A loopback TCP port, 1..65535: the daemon's [serve --tcp] and the
   client's [top --tcp]. *)
let port_conv =
  let parse s =
    Result.bind (Arg.conv_parser Arg.int s) (fun port ->
        if port >= 1 && port <= 65535 then Ok port
        else Error (`Msg (Printf.sprintf "tcp port must be in 1..65535 (got %d)" port)))
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

(* [NAME=N], an index extent binding of at least 1. *)
let extent_conv =
  let parse s =
    match String.split_on_char '=' s with
    | [ name; n ] when name <> "" ->
        Result.map (fun n -> (name, n)) (Arg.conv_parser (count_conv ("extent " ^ name)) n)
    | _ -> Error (`Msg (Printf.sprintf "bad extent %S (expected NAME=N)" s))
  in
  Arg.conv (parse, fun ppf (name, n) -> Fmt.pf ppf "%s=%d" name n)

let arg : type a. a Request.field -> a Term.t =
 fun f ->
  let i = Arg.info f.Request.flags ~docv:f.docv ~doc:f.doc in
  match f.kind with
  | Request.Count -> Arg.(value & opt (count_conv f.key) f.default i)
  | Request.Int -> Arg.(value & opt int f.default i)
  | Request.Flag -> Arg.(value & flag i)
  | Request.Preset p -> Arg.(value & opt (preset_conv p) f.default i)
  | Request.Presets (p, _) ->
      Term.(
        const (function [] -> f.default | l -> l) $ Arg.(value & opt_all (preset_conv p) [] i))

let rec request_term : type a. a Request.spec -> a Term.t = function
  | Request.Const v -> Term.const v
  | Request.Field (s, f) -> Term.(request_term s $ arg f)

let arch_arg = arg Request.arch
let model_arg = arg Request.model
let seq_arg = arg Request.seq
let batch_arg = arg Request.batch
let iterations_arg = arg Request.iterations
let quick_arg = arg Request.quick

let json_arg doc = Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

(* Observability wrapper shared by every subcommand: [--trace FILE]
   and/or [--metrics] turn {!Tf_obs} on around the run, then write the
   Chrome trace and/or print the metrics snapshot.  Without either flag
   the run is untouched (instrumentation stays a single atomic load). *)
let obs_term =
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record a span trace of the run and write it to $(docv) as Chrome trace-event JSON \
             (open in chrome://tracing or Perfetto).")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ] ~doc:"Print the metrics registry snapshot after the run.")
  in
  let make trace metrics run =
    if trace <> None || metrics then Tf_obs.set_enabled true;
    if trace <> None then Tf_obs.Trace.start ();
    Fun.protect
      ~finally:(fun () ->
        (match trace with
        | Some path ->
            Tf_obs.Trace.stop ();
            emit ~what:"trace" path (Tf_obs.Trace.to_json ())
        | None -> ());
        if metrics then print_string (Tf_obs.render_snapshot (Tf_obs.snapshot ())))
      run
  in
  Term.(const make $ trace_arg $ metrics_arg)

(* A subcommand whose [term] yields its run, wrapped by [obs_term]. *)
let cmd name ~doc term = Cmd.v (Cmd.info name ~doc) Term.(const ( @@ ) $ obs_term $ term)

let workload_arg =
  let workload model seq batch = Tf_workloads.Workload.v ~batch model ~seq_len:seq in
  Term.(const workload $ model_arg $ seq_arg $ batch_arg)

let print_result (r : Strategies.result) =
  Fmt.pr "strategy : %a@." Strategies.pp_name r.Strategies.strategy;
  Fmt.pr "arch     : %a@." Tf_arch.Arch.pp r.Strategies.arch;
  Fmt.pr "workload : %a@." Tf_workloads.Workload.pp r.Strategies.workload;
  Fmt.pr "latency  : %a" Latency.pp r.Strategies.latency;
  Fmt.pr "energy   : %a@." Energy.pp r.Strategies.energy;
  (match r.Strategies.tiling with
  | Some c ->
      Fmt.pr "tiling   : %a@." Transfusion.Tileseek.pp_config c
  | None -> ())

(* [--sim-trace FILE]: write the simulated-schedule timeline (Perfetto
   JSON, virtual cycle clock) of the TransFusion fused layer under the
   given tiling.  Shared by eval and decode. *)
let sim_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "sim-trace" ] ~docv:"FILE"
        ~doc:
          "Write the simulated DPipe timeline as Chrome trace-event JSON to $(docv) (\"-\" for \
           stdout, suppressing the human summary; open in Perfetto).  Timestamps are virtual \
           cycles, not wall time.  TransFusion strategy only.")

let write_sim_trace report path =
  try emit_json ~what:"sim trace" path (Tf_report.Explain.trace (report ()))
  with Invalid_argument msg -> Fmt.epr "sim-trace skipped: %s@." msg

let eval_cmd =
  let run req json sim_trace () =
    (* One verified evaluation feeds the summary, the document the
       daemon's [schedule] serves and the simulated timeline. *)
    let r, execution = Tf_serve.Api.schedule req in
    if json <> Some "-" && sim_trace <> Some "-" then print_result r;
    Option.iter (fun path -> emit_json ~what:"eval JSON" path (Tf_serve.Api.result_json r)) json;
    match (sim_trace, execution) with
    | None, _ -> ()
    | Some _, None ->
        Fmt.epr "sim-trace skipped: only the TransFusion strategy has a simulated schedule@."
    | Some path, Some e -> write_sim_trace (fun () -> Tf_report.Explain.of_execution r e) path
  in
  cmd "eval" ~doc:"Evaluate one scheduling strategy on one workload"
    Term.(
      const run $ request_term Request.Schedule.spec
      $ json_arg
          "Also write the result as a transfusion.eval/1 JSON document to $(docv) (\"-\" for \
           stdout, suppressing the human summary)."
      $ sim_trace_arg)

let serve_cmd =
  let run socket tcp cache_dir cache_entries grid access_log access_log_max_bytes
      access_log_max_files sample_interval window () =
    let config =
      {
        Tf_serve.Server.socket_path = socket;
        tcp_port = tcp;
        cache_dir;
        cache_entries;
        grid;
        access_log;
        access_log_max_bytes;
        access_log_max_files;
        sample_interval_s = sample_interval;
        window;
      }
    in
    let server = Tf_serve.Server.create config in
    (match socket with Some p -> Fmt.epr "listening on %s@." p | None -> ());
    (match tcp with Some p -> Fmt.epr "listening on 127.0.0.1:%d@." p | None -> ());
    Tf_serve.Server.serve server;
    Fmt.epr "server stopped@."
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) (Some "transfusion.sock")
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain listening socket path.")
  in
  let tcp_arg =
    Arg.(
      value
      & opt (some port_conv) None
      & info [ "tcp" ] ~docv:"PORT" ~doc:"Also listen on loopback TCP port $(docv).")
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Persist computed schedules to $(docv) (one JSON file per key); they are reused \
             across restarts.  Use a directory only with the build that wrote it: a key names \
             the request, so another build's files are served as they are.")
  in
  let cache_entries_arg =
    count_opt "cache-entries" ~default:1024 ~doc:"In-memory cache bound (LRU eviction)."
  in
  let grid_arg =
    Arg.(
      value & opt int 0
      & info [ "grid" ] ~docv:"N"
          ~doc:
            "Sequence-length bucket width: off-grid schedule queries answer from the nearest \
             bucket with interpolated costs.  0 disables bucketing.")
  in
  let access_log_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "access-log" ] ~docv:"FILE"
          ~doc:
            "Write one transfusion.access/1 NDJSON record per request to $(docv) (correlation \
             id, cache tier, latency, outcome), with size-bounded rotation.")
  in
  let access_log_max_bytes_arg =
    count_opt "access-log-max-bytes" ~default:(1 lsl 20)
      ~doc:"Rotate the access log past $(docv) bytes."
  in
  let access_log_max_files_arg =
    count_opt "access-log-max-files" ~default:4 ~doc:"Rotated access-log generations kept."
  in
  let sample_interval_arg =
    Arg.(
      value
      & opt (positive_float_conv "sample-interval") 1.0
      & info [ "sample-interval" ] ~docv:"SECONDS"
          ~doc:"Telemetry sampler period (feeds the stats window).")
  in
  let window_arg = count_opt "window" ~default:120 ~doc:"Telemetry window capacity, in samples." in
  cmd "serve"
    ~doc:
      "Run the persistent scheduling daemon (newline-delimited JSON over a Unix socket; see \
       README for the wire protocol)"
    Term.(
      const run $ socket_arg $ tcp_arg $ cache_dir_arg $ cache_entries_arg $ grid_arg
      $ access_log_arg $ access_log_max_bytes_arg $ access_log_max_files_arg
      $ sample_interval_arg $ window_arg)

let sweep_cmd =
  let run arch model quick () =
    Tf_experiments.Fig8_speedup.print
      ~title:(Printf.sprintf "Speedup over Unfused: %s" model.Tf_workloads.Model.name)
      (Tf_experiments.Fig8_speedup.scaling ~quick [ arch ] model)
  in
  cmd "sweep" ~doc:"Speedup table across the sequence sweep"
    Term.(const run $ arch_arg $ model_arg $ quick_arg)

let search_cmd =
  let run arch w iterations () =
    let r, _, stats = Strategies.search ~iterations arch w in
    let config = Option.get r.Strategies.tiling in
    Fmt.pr "TileSeek result: %a@." Transfusion.Tileseek.pp_config config;
    Fmt.pr "buffer need: %.0f elements of %d available@."
      (Transfusion.Buffer_req.worst (Transfusion.Tileseek.dims arch w config))
      (Tf_arch.Arch.buffer_elements arch);
    Fmt.pr "MCTS: %d iterations, %d terminals, best reward %.3f, %d tree nodes@."
      stats.Transfusion.Mcts.iterations stats.Transfusion.Mcts.terminals_evaluated
      stats.Transfusion.Mcts.best_reward stats.Transfusion.Mcts.tree_nodes;
    Fmt.pr "latency with this tiling: %.4e s@." r.Strategies.latency.Latency.total_s
  in
  cmd "search" ~doc:"Run TileSeek outer-tiling search"
    Term.(const run $ arch_arg $ workload_arg $ iterations_arg)

let schedule_cmd =
  let run arch w () =
    let { Transfusion.Layer_costs.load; matrix; dag = g; plan; totals = arr; _ } =
      Strategies.layer_problem w
    in
    let sched = Transfusion.Dpipe.schedule arch ~load ~matrix plan in
    Fmt.pr "fused-layer DAG: %d ops, %d edges@." (Tf_dag.Dag.node_count g) (Tf_dag.Dag.edge_count g);
    (match sched.Transfusion.Dpipe.partition with
    | Some p ->
        let name side = String.concat " " (List.map (fun i -> arr.(i).Transfusion.Layer_costs.op.Tf_einsum.Einsum.name) side) in
        Fmt.pr "stage 1: %s@." (name p.Tf_dag.Partition.first);
        Fmt.pr "stage 2: %s@." (name p.Tf_dag.Partition.second)
    | None -> Fmt.pr "no valid bipartition; single-stage schedule@.");
    Fmt.pr "steady interval: %.4e cycles/epoch, unrolled makespan %.4e cycles@."
      sched.Transfusion.Dpipe.steady_interval_cycles sched.Transfusion.Dpipe.makespan_cycles;
    let by_resource r =
      List.filter (fun (a : Transfusion.Dpipe.assignment) -> a.Transfusion.Dpipe.resource = r)
        sched.Transfusion.Dpipe.assignments
      |> List.length
    in
    Fmt.pr "instance assignments: %d on 2D, %d on 1D@." (by_resource Tf_arch.Arch.Pe_2d)
      (by_resource Tf_arch.Arch.Pe_1d);
    Fmt.pr "@.%s@."
      (Transfusion.Pipeline_sim.gantt
         ~label:(fun n -> arr.(n).Transfusion.Layer_costs.op.Tf_einsum.Einsum.name)
         sched)
  in
  cmd "schedule" ~doc:"Show the DPipe schedule of the fused layer"
    Term.(const run $ arch_arg $ workload_arg)

let explain_cmd =
  let run req json sim_trace () =
    let e = Tf_serve.Api.explain req in
    (* With --json - the document owns stdout; the human table would
       corrupt it. *)
    if json <> Some "-" then print_string (Tf_report.Explain.render e);
    Option.iter (fun path -> emit_json ~what:"explain JSON" path (Tf_report.Explain.to_json e)) json;
    Option.iter (fun path -> emit_json ~what:"sim trace" path (Tf_report.Explain.trace e)) sim_trace
  in
  cmd "explain"
    ~doc:
      "Search a TransFusion tiling, simulate its DPipe schedule and report per-Einsum \
       bottlenecks, stall attribution, buffer occupancy and search convergence"
    Term.(
      const run $ request_term Request.Explain.spec
      $ json_arg
          "Also write the report as a transfusion.explain/1 JSON document to $(docv) (\"-\" for \
           stdout, suppressing the table)."
      $ sim_trace_arg)

let figures_cmd =
  let run quick () =
    let module E = Tf_experiments in
    let archs = [ Tf_arch.Presets.cloud; Tf_arch.Presets.edge ] in
    let llama3 = Tf_workloads.Presets.llama3 in
    E.Fig8_speedup.print ~title:"Fig 8a: Llama3 speedup over Unfused (cloud, edge)"
      (E.Fig8_speedup.scaling ~quick archs llama3);
    E.Fig8_speedup.print ~title:"Fig 8b: model-wise speedup at 64K (cloud)"
      (E.Fig8_speedup.model_wise Tf_arch.Presets.cloud);
    E.Fig9_pe_size.print ~title:"Fig 9a: Llama3 speedup, edge 32x32 / 64x64"
      (E.Fig9_pe_size.scaling ~quick llama3);
    E.Fig9_pe_size.print ~title:"Fig 9b: model-wise speedup at 64K, edge 32x32 / 64x64"
      (E.Fig9_pe_size.model_wise ());
    E.Fig10_utilization.print ~title:"Fig 10a: PE utilization, Llama3 (cloud)"
      (E.Fig10_utilization.scaling ~quick Tf_arch.Presets.cloud llama3);
    E.Fig10_utilization.print ~title:"Fig 10b: PE utilization, models at 64K (cloud)"
      (E.Fig10_utilization.model_wise Tf_arch.Presets.cloud);
    E.Fig11_contribution.print ~title:"Fig 11: speedup contribution (TransFusion over FuseMax)"
      (E.Fig11_contribution.scaling ~quick archs llama3);
    E.Fig12_energy.print ~title:"Fig 12a: Llama3 energy vs Unfused (cloud, edge)"
      (E.Fig12_energy.scaling ~quick archs llama3);
    E.Fig12_energy.print ~title:"Fig 12b: model-wise energy at 64K (cloud)"
      (E.Fig12_energy.model_wise Tf_arch.Presets.cloud);
    E.Fig13_breakdown.print ~title:"Fig 13: energy breakdown (TransFusion / FuseMax)"
      (E.Fig13_breakdown.scaling ~quick archs llama3);
    Tf_experiments.Exp_common.print_header "Headline geomeans (Section 6.2)";
    List.iter (fun arch -> E.Headline.print (E.Headline.compute ~quick arch)) archs
  in
  cmd "figures" ~doc:"Regenerate the paper's figures"
    Term.(const run $ quick_arg)

let ablations_cmd =
  let run model () =
    let module E = Tf_experiments in
    E.Ablations.print_dpipe (E.Ablations.dpipe model);
    E.Ablations.print_tileseek (E.Ablations.tileseek model);
    E.Ablations.print_sensitivity (E.Ablations.sensitivity model);
    E.Ablations.print_batch (E.Ablations.batch model);
    E.Ablations.print_objectives (E.Ablations.objectives model)
  in
  cmd "ablations" ~doc:"Run the design-choice ablation studies"
    Term.(const run $ model_arg)

let structures_cmd =
  let run arch model seq () =
    Tf_experiments.Exp_structures.print
      ~title:
        (Printf.sprintf "Encoder / decoder / encoder-decoder: %s on %s"
           model.Tf_workloads.Model.name arch.Tf_arch.Arch.name)
      (Tf_experiments.Exp_structures.run ~seq arch model)
  in
  cmd "structures" ~doc:"Evaluate encoder/decoder/hybrid structures"
    Term.(const run $ arch_arg $ model_arg $ seq_arg)

let cascade_cmd =
  let run arch file bindings () =
    let contents =
      let ic = open_in file in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Tf_einsum.Parser.cascade_of_string contents with
    | Error e ->
        Fmt.epr "parse error: %s@." e;
        exit 1
    | Ok cascade -> (
        Fmt.pr "%a@." Tf_einsum.Cascade.pp cascade;
        let g = Tf_einsum.Cascade.to_dag cascade in
        Fmt.pr "DAG: %d ops, %d edges; externals: %s; results: %s@."
          (Tf_dag.Dag.node_count g) (Tf_dag.Dag.edge_count g)
          (String.concat " " (Tf_einsum.Cascade.external_inputs cascade))
          (String.concat " " (Tf_einsum.Cascade.results cascade));
        Fmt.pr "valid bipartitions: %d@."
          (List.length (Tf_dag.Partition.enumerate ~limit:512 g));
        (* Bind extents from the --extent flags (default 64). *)
        let extents =
          List.fold_left
            (fun acc index ->
              let v = try List.assoc index bindings with Not_found -> 64 in
              Tf_einsum.Extents.add index v acc)
            Tf_einsum.Extents.empty
            (Tf_einsum.Cascade.indices cascade)
        in
        Fmt.pr "extents: %a@." Tf_einsum.Extents.pp extents;
        let ops = Array.of_list (Tf_einsum.Cascade.ops cascade) in
        let load n = Tf_einsum.Einsum.compute_load extents ops.(n) in
        let matrix n = Tf_einsum.Einsum.is_matrix_op ops.(n) in
        let sched = Transfusion.Dpipe.schedule arch ~load ~matrix (Transfusion.Dpipe.plan g) in
        let sequential = Transfusion.Dpipe.sequential_cycles arch ~load ~matrix g in
        Fmt.pr "sequential: %.4e cycles/epoch; DPipe steady: %.4e (%.2fx)@." sequential
          sched.Transfusion.Dpipe.steady_interval_cycles
          (sequential /. sched.Transfusion.Dpipe.steady_interval_cycles);
        match sched.Transfusion.Dpipe.partition with
        | Some p ->
            let names side =
              String.concat " "
                (List.map (fun i -> ops.(i).Tf_einsum.Einsum.name) side)
            in
            Fmt.pr "stages: {%s | %s}@." (names p.Tf_dag.Partition.first)
              (names p.Tf_dag.Partition.second)
        | None -> Fmt.pr "single-stage schedule@.")
  in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Cascade file.")
  in
  let extent_arg =
    Arg.(
      value & opt_all extent_conv []
      & info [ "extent" ] ~docv:"NAME=N" ~doc:"Index extent binding (repeatable; default 64).")
  in
  cmd "cascade" ~doc:"Parse, analyze and DPipe-schedule a cascade file"
    Term.(const run $ arch_arg $ file_arg $ extent_arg)

let pareto_cmd =
  let run arch w iterations () =
    let measure config =
      let r, _ = Strategies.evaluate ~tiling:config arch w Strategies.Transfusion in
      (r.Strategies.latency.Latency.total_s, Energy.total_pj r.Strategies.energy /. 1e12)
    in
    let front = Transfusion.Tileseek.pareto ~iterations arch w ~cost:measure () in
    Fmt.pr "%-40s %14s %14s@." "tiling (b d p m1 m0 s)" "latency(s)" "energy(J)";
    List.iter
      (fun ((c : Transfusion.Tileseek.config), lat, energy) ->
        Fmt.pr "b=%-3d d=%-5d p=%-5d m1=%-2d m0=%-4d s=%-5d %14.4e %14.4e@."
          c.Transfusion.Tileseek.b c.Transfusion.Tileseek.d c.Transfusion.Tileseek.p
          c.Transfusion.Tileseek.m1 c.Transfusion.Tileseek.m0 c.Transfusion.Tileseek.s lat energy)
      front
  in
  cmd "pareto" ~doc:"Latency/energy Pareto front of TransFusion tilings"
    Term.(const run $ arch_arg $ workload_arg $ iterations_arg)

let headline_cmd =
  let run arch full model () =
    Tf_experiments.Exp_common.print_header
      (Printf.sprintf "Headline geomeans (Section 6.2): %s on %s" model.Tf_workloads.Model.name
         arch.Tf_arch.Arch.name);
    Tf_experiments.Headline.print
      (Tf_experiments.Headline.compute ~quick:(not full) ~model arch)
  in
  let full_arg =
    Arg.(value & flag & info [ "full" ] ~doc:"Use the full 1K-1M sequence sweep (default: quick).")
  in
  cmd "headline"
    ~doc:"Compute the Section 6.2 headline geomean speedups over the baselines"
    Term.(const run $ arch_arg $ full_arg $ model_arg)

let selftest_cmd =
  let run full () =
    let checks = Tf_experiments.Selftest.run ~quick:(not full) () in
    Tf_experiments.Selftest.print checks;
    if not (Tf_experiments.Selftest.all_passed checks) then exit 1
  in
  let full_arg = Arg.(value & flag & info [ "full" ] ~doc:"Run on every architecture preset.") in
  cmd "selftest" ~doc:"Run the cross-cutting model invariant battery"
    Term.(const run $ full_arg)

let diagnostic_json (d : Tf_analysis.Diagnostic.t) =
  let opt_str = function None -> Json.Null | Some s -> Json.Str s in
  Json.Obj
    [
      ("code", Json.Str d.Tf_analysis.Diagnostic.code);
      ( "severity",
        Json.Str
          (match d.Tf_analysis.Diagnostic.severity with
          | Tf_analysis.Diagnostic.Error -> "error"
          | Tf_analysis.Diagnostic.Warning -> "warning") );
      ("context", opt_str d.Tf_analysis.Diagnostic.location.Tf_analysis.Diagnostic.context);
      ("op", opt_str d.Tf_analysis.Diagnostic.location.Tf_analysis.Diagnostic.op);
      ( "node",
        match d.Tf_analysis.Diagnostic.location.Tf_analysis.Diagnostic.node with
        | None -> Json.Null
        | Some n -> Json.Int n );
      ("message", Json.Str d.Tf_analysis.Diagnostic.message);
    ]

let lint_cmd =
  let run full strict json () =
    let diags = Tf_analysis.Verify.check_presets ~quick:(not full) () in
    (match json with
    | Some path ->
        emit_json ~what:"lint report" path
          (Json.Obj
             [
               ("schema", Json.Str "transfusion.lint/1");
               ("diagnostics", Json.List (List.map diagnostic_json diags));
             ])
    | None -> Fmt.pr "%a@." Tf_analysis.Diagnostic.pp_list diags);
    if Tf_analysis.Diagnostic.has_errors diags || (strict && diags <> []) then exit 1
  in
  let full_arg =
    Arg.(value & flag & info [ "full" ] ~doc:"Lint every architecture and model preset.")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Exit nonzero on warnings too, not just on errors.")
  in
  let json_arg =
    json_arg
      "Write the diagnostics as a transfusion.lint/1 JSON document to $(docv) (\"-\" for \
       stdout) instead of the human listing."
  in
  cmd "lint"
    ~doc:"Statically verify built-in cascades, tilings and DPipe schedules"
    Term.(const run $ full_arg $ strict_arg $ json_arg)

let check_cmd =
  let module RC = Tf_analysis.Range_cert in
  let range_conv =
    (* The grid [Symexpr.grid] certifies over: LO >= 1, HI >= LO and
       STEP >= 1 (STEP defaults to LO). *)
    let checked lo hi step =
      let refuse fmt = Printf.ksprintf (fun m -> Error (`Msg m)) fmt in
      if lo < 1 then refuse "range LO must be >= 1 (got %d)" lo
      else if hi < lo then refuse "range HI must be >= LO (got %d:%d)" lo hi
      else
        match step with
        | Some st when st < 1 -> refuse "range STEP must be >= 1 (got %d)" st
        | _ -> Ok (lo, hi, step)
    in
    let parse s =
      let ints parts = try Some (List.map int_of_string parts) with Failure _ -> None in
      match ints (String.split_on_char ':' s) with
      | Some [ lo; hi ] -> checked lo hi None
      | Some [ lo; hi; step ] -> checked lo hi (Some step)
      | _ -> Error (`Msg (Printf.sprintf "expected LO:HI or LO:HI:STEP, got %S" s))
    in
    let print ppf (lo, hi, step) =
      match step with
      | None -> Fmt.pf ppf "%d:%d" lo hi
      | Some s -> Fmt.pf ppf "%d:%d:%d" lo hi s
    in
    Arg.conv (parse, print)
  in
  let range_arg =
    Arg.(
      value
      & opt (some range_conv) None
      & info [ "r"; "range" ] ~docv:"LO:HI[:STEP]"
          ~doc:
            "Certify every sequence length on the grid LO, LO+STEP, ..., HI (STEP defaults to \
             LO: the bucketing grid of a schedule server).")
  in
  let models_arg =
    Arg.(
      value & opt_all (preset_conv Request.model_preset) []
      & info [ "m"; "model" ] ~docv:"MODEL"
          ~doc:"Model preset to certify (repeatable; default: T5 and BERT).")
  in
  let attention_arg =
    Arg.(
      value
      & opt (enum [ ("self", RC.Self); ("causal", RC.Causal); ("decode", RC.Decode) ]) RC.Self
      & info [ "attention" ] ~docv:"KIND"
          ~doc:
            "Attention flavour: self|causal certify over the sequence length, decode over the \
             KV-cache length.")
  in
  let qlen_arg =
    Arg.(
      value & opt int 1
      & info [ "seq" ] ~docv:"LEN" ~doc:"Query length of a decode step (decode attention only).")
  in
  let policy_arg =
    Arg.(
      value
      & opt (enum [ ("fixed", RC.Fixed); ("resident", RC.Resident) ]) RC.Fixed
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:
            "Tiling policy across the range: $(b,fixed) freezes one tiling; $(b,resident) keeps \
             the full key/value sequence on-chip (m1 = n/m0), so occupancy grows with n.")
  in
  let json_arg =
    json_arg
      "Write the transfusion.cert/1 certificate to $(docv) (\"-\" for stdout); requires a \
       single --model."
  in
  let validate_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "validate" ] ~docv:"FILE"
          ~doc:
            "Validate an existing certificate with the independent checker instead of \
             certifying; all other options are ignored.")
  in
  let run arch models range batch attention qlen policy json validate () =
    match validate with
    | Some path ->
        let text = In_channel.with_open_text path In_channel.input_all in
        (match Tf_analysis.Cert_check.validate text with
        | Ok summary -> Fmt.pr "%s: %s@." path summary
        | Error problems ->
            List.iter (fun p -> Fmt.epr "%s: %s@." path p) problems;
            exit 1)
    | None -> (
        match range with
        | None ->
            Fmt.epr "check: either --range LO:HI[:STEP] or --validate FILE is required@.";
            exit 2
        | Some (lo, hi, step) ->
            let step = Option.value step ~default:lo in
            let models =
              if models = [] then [ Tf_workloads.Presets.t5; Tf_workloads.Presets.bert ]
              else models
            in
            if json <> None && List.length models > 1 then begin
              Fmt.epr "check: --json requires a single --model@.";
              exit 2
            end;
            let refused = ref false in
            List.iter
              (fun model ->
                let cert =
                  Tf_analysis.Verify.certify_range ~attention ~batch ~seq:qlen ~policy arch
                    model ~lo ~hi ~step ()
                in
                print_string (RC.render cert);
                List.iter
                  (fun d -> Fmt.pr "  %s@." (Tf_analysis.Diagnostic.render d))
                  (Tf_analysis.Diagnostic.warnings (RC.diagnostics cert));
                if not cert.RC.certified then refused := true;
                match json with
                | None -> ()
                | Some path ->
                    let doc = RC.to_json_string cert in
                    (* The certificate is only worth writing if the
                       independent checker countersigns it. *)
                    (match Tf_analysis.Cert_check.validate doc with
                    | Ok _ -> ()
                    | Error problems ->
                        List.iter
                          (fun p -> Fmt.epr "independent checker rejected the certificate: %s@." p)
                          problems;
                        exit 2);
                    emit ~what:"certificate" path doc)
              models;
            if !refused then exit 1)
  in
  cmd "check"
    ~doc:
      "Certify tilings and the DPipe schedule over a whole range of sequence lengths \
       (symbolic interval/affine analysis with machine-checkable certificates)"
    Term.(
      const run $ arch_arg $ models_arg $ range_arg $ batch_arg $ attention_arg
      $ qlen_arg $ policy_arg $ json_arg $ validate_arg)

let export_cmd =
  let run dir quick () =
    let module E = Tf_experiments in
    let archs = [ Tf_arch.Presets.cloud; Tf_arch.Presets.edge ] in
    let llama3 = Tf_workloads.Presets.llama3 in
    let strategies = Strategies.all in
    let columns = List.map Strategies.name strategies in
    let file name contents = Json.write_file ~path:(Filename.concat dir name) contents in
    let fig8a = E.Fig8_speedup.scaling ~quick archs llama3 in
    file "fig8a_speedup.csv"
      (E.Export.csv ~columns
         ~rows:
           (List.map
              (fun (p : E.Fig8_speedup.point) ->
                (p.E.Fig8_speedup.arch ^ "/" ^ p.E.Fig8_speedup.label,
                 List.map snd p.E.Fig8_speedup.speedups))
              fig8a));
    let fig12a = E.Fig12_energy.scaling ~quick archs llama3 in
    file "fig12a_energy.csv"
      (E.Export.csv ~columns
         ~rows:
           (List.map
              (fun (p : E.Fig12_energy.point) ->
                (p.E.Fig12_energy.arch ^ "/" ^ p.E.Fig12_energy.label,
                 List.map snd p.E.Fig12_energy.energy))
              fig12a));
    let fig10a = E.Fig10_utilization.scaling ~quick Tf_arch.Presets.cloud llama3 in
    file "fig10a_utilization.csv"
      (E.Export.csv
         ~columns:(List.concat_map (fun s -> [ Strategies.name s ^ "_2d"; Strategies.name s ^ "_1d" ]) strategies)
         ~rows:
           (List.map
              (fun (p : E.Fig10_utilization.point) ->
                ( p.E.Fig10_utilization.arch ^ "/" ^ p.E.Fig10_utilization.label,
                  List.concat_map (fun (_, u2, u1) -> [ u2; u1 ]) p.E.Fig10_utilization.per_strategy ))
              fig10a));
    Fmt.pr "wrote fig8a_speedup.csv, fig12a_energy.csv, fig10a_utilization.csv to %s@." dir
  in
  let dir_arg =
    Arg.(value & opt string "results" & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  cmd "export" ~doc:"Write figure series as CSV files"
    Term.(const run $ dir_arg $ quick_arg)

let decode_cmd =
  let run (req : Request.Decode.t) json sim_trace () =
    let module E = Tf_experiments in
    let points = Tf_serve.Api.decode req in
    if json <> Some "-" && sim_trace <> Some "-" then
      E.Exp_generation.print
        ~title:
          (Printf.sprintf "Autoregressive generation on %s (gen=%d, batch=%d)"
             req.arch.Tf_arch.Arch.name req.gen req.batch)
        points;
    (match json with
    | None -> ()
    | Some path -> emit_json ~what:"generation JSON" path (E.Exp_generation.to_json points));
    match sim_trace with
    | None -> ()
    | Some path -> (
        (* Trace the deepest-cache decode step of the last TransFusion
           point, from the execution the sweep priced it with. *)
        let traced =
          List.rev points
          |> List.find_map (fun (p : E.Exp_generation.point) ->
                 Option.map
                   (fun e -> (p.E.Exp_generation.metrics.Transfusion.Decode.last, e))
                   p.E.Exp_generation.executions.Transfusion.Decode.last_exec)
        in
        match traced with
        | None -> Fmt.epr "sim-trace skipped: no point used a searched (TransFusion) tiling@."
        | Some (last, e) ->
            write_sim_trace (fun () -> Tf_report.Explain.of_execution last e) path)
  in
  cmd "decode"
    ~doc:
      "Autoregressive serving sweep: TTFT, per-token latency, tokens/sec and energy/token \
       across prompt lengths (prefill + KV-cache decode)"
    Term.(
      const run $ request_term Request.Decode.spec
      $ json_arg "Also write the sweep as a transfusion.generation/1 JSON document to $(docv)."
      $ sim_trace_arg)

let simulate_cmd =
  let run arch model strategy iterations seed requests qps process policy capacity classes
      horizon cache_dir compare json sim_trace () =
    let module S = Tf_serving in
    let cache = Option.map (fun dir -> Tf_serve.Cache.create ~dir ()) cache_dir in
    let costs = S.Costs.create ?cache ~strategy ~iterations arch model in
    if compare then begin
      let points = S.Exp_serving.sweep ~seed ~n:requests ~capacity ~classes ~process ~costs () in
      if json <> Some "-" then
        S.Exp_serving.print
          ~title:
            (Printf.sprintf "Serving policies on %s/%s (%s, %d requests, capacity %d)"
               arch.Tf_arch.Arch.name model.Tf_workloads.Model.name
               (S.Traffic.process_name process) requests capacity)
          points;
      match json with
      | None -> ()
      | Some path -> emit_json ~what:"serving JSON" path (S.Exp_serving.to_json ~costs points)
    end
    else begin
      let rate_qps =
        match qps with
        | Some q -> q
        | None -> 0.7 *. S.Exp_serving.service_rate ~costs ~classes ~capacity
      in
      let trace = S.Traffic.generate ~classes ~seed ~rate_qps ~n:requests process in
      let report = S.Simulator.run ?horizon_s:horizon ~capacity ~costs ~policy trace in
      if json <> Some "-" && sim_trace <> Some "-" then begin
        let r = report in
        Fmt.pr "serving simulation: %s policy, %d requests @@ %.3f qps (%s, seed %d)@."
          r.S.Simulator.policy requests rate_qps (S.Traffic.process_name process) seed;
        Fmt.pr "  completed %d, unfinished %d, preemptions %d, decode steps %d@."
          (List.length r.S.Simulator.completed)
          (List.length r.S.Simulator.unfinished)
          r.S.Simulator.preemptions r.S.Simulator.steps;
        Fmt.pr "  makespan %.3fs, busy %.3fs, utilization %.1f%%, mean batch %.2f@."
          r.S.Simulator.makespan_s r.S.Simulator.busy_s
          (100. *. r.S.Simulator.pe_utilization)
          r.S.Simulator.mean_batch;
        Fmt.pr "  TTFT p50/p95/p99 %.2f/%.2f/%.2f ms, TPOT p50/p95 %.3f/%.3f ms@."
          (1e3 *. r.S.Simulator.ttft.S.Simulator.p50)
          (1e3 *. r.S.Simulator.ttft.S.Simulator.p95)
          (1e3 *. r.S.Simulator.ttft.S.Simulator.p99)
          (1e3 *. r.S.Simulator.tpot.S.Simulator.p50)
          (1e3 *. r.S.Simulator.tpot.S.Simulator.p95);
        Fmt.pr "  energy/request %.2f uJ, queue depth max %d mean %.2f@."
          (r.S.Simulator.energy_per_request_pj /. 1e6)
          r.S.Simulator.queue_depth_max r.S.Simulator.queue_depth_mean
      end;
      (match json with
      | None -> ()
      | Some path -> emit_json ~what:"serving JSON" path (S.Simulator.to_json ~costs report));
      match sim_trace with
      | None -> ()
      | Some path -> emit_json ~what:"serving sim trace" path (S.Trace.document report)
    end
  in
  let process_conv =
    let parse s =
      match Tf_serving.Traffic.default_process s with
      | Some p -> Ok p
      | None -> Error (`Msg (Printf.sprintf "unknown arrival process %S (poisson|bursty|diurnal)" s))
    in
    Arg.conv (parse, fun ppf p -> Fmt.string ppf (Tf_serving.Traffic.process_name p))
  in
  let policy_conv =
    let parse s =
      match Tf_serving.Policy.of_name s with
      | Some p -> Ok p
      | None ->
          Error (`Msg (Printf.sprintf "unknown policy %S (static|continuous|interleaved)" s))
    in
    Arg.conv (parse, fun ppf (p : Tf_serving.Policy.t) -> Fmt.string ppf p.Tf_serving.Policy.name)
  in
  let classes_conv =
    let parse s = Result.map_error (fun m -> `Msg m) (Tf_serving.Traffic.parse_classes s) in
    let print ppf classes =
      Fmt.string ppf
        (String.concat ","
           (List.map
              (fun (c : Tf_serving.Traffic.cls) ->
                Printf.sprintf "%d:%d:%g" c.Tf_serving.Traffic.prompt c.Tf_serving.Traffic.gen
                  c.Tf_serving.Traffic.weight)
              classes))
    in
    Arg.conv (parse, print)
  in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Traffic seed.") in
  let requests_arg = count_opt "requests" ~default:200 ~doc:"Requests in the trace." in
  let qps_arg =
    Arg.(
      value
      & opt (some (positive_float_conv "qps")) None
      & info [ "qps" ] ~docv:"RATE"
          ~doc:
            "Mean arrival rate (requests/s).  Default: 70% of the estimated service capacity \
             (high load).")
  in
  let process_arg =
    Arg.(
      value
      & opt process_conv Tf_serving.Traffic.Poisson
      & info [ "process" ] ~docv:"PROCESS" ~doc:"Arrival process: poisson, bursty or diurnal.")
  in
  let policy_arg =
    Arg.(
      value
      & opt policy_conv Tf_serving.Policy.continuous
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:"Admission policy: static, continuous or interleaved.")
  in
  let capacity_arg = count_opt "capacity" ~default:16 ~doc:"Decode batch capacity." in
  let classes_arg =
    Arg.(
      value
      & opt classes_conv Tf_serving.Traffic.default_classes
      & info [ "classes" ] ~docv:"SPEC"
          ~doc:"Request class mix as PROMPT:GEN:WEIGHT,... (e.g. 256:64:3,1024:256:1).")
  in
  let horizon_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "horizon" ] ~docv:"SECONDS"
          ~doc:"Stop the simulation at this much virtual time (default: run to completion).")
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"Persist per-class decode costs through the serve daemon's two-tier cache in \
                $(docv).")
  in
  let compare_arg =
    Arg.(
      value & flag
      & info [ "compare" ]
          ~doc:"Run the policy-comparison experiment (all policies x low/high load) instead of a \
                single simulation.")
  in
  let iterations_arg = arg { Request.iterations with default = 60 } in
  let strategy_arg = arg { Request.strategy with doc = "Scheduling strategy costing each request." } in
  let json_arg = json_arg "Write the report as a transfusion.serving/1 JSON document to $(docv)." in
  let sim_trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "sim-trace" ] ~docv:"FILE"
          ~doc:
            "Write the serving window as Chrome trace-event JSON to $(docv) (\"-\" for stdout; \
             open in Perfetto).  Timestamps are virtual seconds.")
  in
  cmd "simulate"
    ~doc:
      "Discrete-event simulation of one accelerator serving a seeded arrival stream of \
       generation requests (continuous batching, TTFT/TPOT distributions)"
    Term.(
      const run $ arch_arg $ model_arg $ strategy_arg $ iterations_arg $ seed_arg
      $ requests_arg $ qps_arg $ process_arg $ policy_arg $ capacity_arg $ classes_arg
      $ horizon_arg $ cache_dir_arg $ compare_arg $ json_arg $ sim_trace_arg)

(* --- transfusion top: live dashboard over the daemon's stats op ------ *)

let top_cmd =
  (* One poll = one fresh connection (the daemon is
     connection-per-thread; holding one open across sleeps would pin a
     server thread for nothing), one stats request, the raw
     transfusion.stats/1 payload back. *)
  let fetch ~socket ~tcp ~timeout =
    let addr =
      match (socket, tcp) with
      | _, Some port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)
      | Some path, None -> Unix.ADDR_UNIX path
      | None, None -> failwith "either --socket or --tcp is required"
    in
    let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect fd addr;
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
        let oc = Unix.out_channel_of_descr fd in
        output_string oc "{\"op\":\"stats\"}\n";
        flush oc;
        match In_channel.input_line (Unix.in_channel_of_descr fd) with
        | None -> failwith "connection closed by server"
        | Some line -> (
            match Tf_serve.Protocol.result_of_line line with
            | Some payload -> payload
            | None -> failwith ("server error: " ^ line)))
  in
  let num = function Json.Num f -> f | _ -> Float.nan in
  let fields name doc = match Json.find name doc with Some (Json.Obj kvs) -> kvs | _ -> [] in
  let assoc_num kvs name =
    match List.assoc_opt name kvs with Some v -> num v | None -> Float.nan
  in
  let num_field entry name =
    match Json.find name entry with Some v -> num v | None -> Float.nan
  in
  (* Windowed delta buckets of one histogram; the emitter serialises
     the +Inf overflow bound as null. *)
  let buckets_of entry =
    match Json.find "buckets" entry with
    | Some (Json.List bs) ->
        List.filter_map
          (function
            | Json.List [ ub; Json.Num n ] ->
                let ub = match ub with Json.Num f -> f | _ -> Float.infinity in
                Some (ub, int_of_float n)
            | _ -> None)
          bs
    | _ -> []
  in
  let render ~slos ~slo_target doc =
    let b = Buffer.create 2048 in
    let p fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    let rates = fields "rates" doc
    and quantiles = fields "quantiles" doc
    and histograms = fields "histograms" doc
    and gauges = fields "gauges" doc
    and counters = fields "counters" doc in
    let rate name =
      let r = assoc_num rates name in
      if Float.is_nan r then 0. else r
    in
    let top_num name = match Json.find name doc with Some v -> num v | None -> Float.nan in
    (* The per-op counters exist from server creation, so the table has
       a stable row set even before any traffic. *)
    let ops =
      List.filter_map
        (fun (name, _) ->
          match String.split_on_char '.' name with
          | [ "serve"; op; "requests_total" ] -> Some op
          | _ -> None)
        counters
      |> List.sort_uniq compare
    in
    let span = top_num "span_s" in
    let qps =
      List.fold_left
        (fun acc op -> acc +. rate (Printf.sprintf "serve.%s.requests_total" op))
        0. ops
    in
    let ms f = if Float.is_nan f then "-" else Printf.sprintf "%.2f" (f *. 1000.) in
    let pct f = if Float.is_nan f then "-" else Printf.sprintf "%.1f%%" f in
    p "transfusion top | qps %.1f | window %s (%d samples) | connections %.0f | uptime %.0fs\n"
      qps
      (if Float.is_nan span then "warming up" else Printf.sprintf "%.1fs" span)
      (int_of_float (Float.max 0. (top_num "window_samples")))
      (assoc_num gauges "serve.connections_active")
      (assoc_num gauges "process.uptime_seconds");
    p "\n%-10s %9s %9s %9s %9s %9s %8s\n" "endpoint" "qps" "p50(ms)" "p95(ms)" "p99(ms)"
      "fail/s" "burn";
    List.iter
      (fun op ->
        let lat = Printf.sprintf "serve.%s.latency_seconds" op in
        let p50, p95, p99 =
          match List.assoc_opt lat quantiles with
          | Some entry -> (num_field entry "p50", num_field entry "p95", num_field entry "p99")
          | None -> (Float.nan, Float.nan, Float.nan)
        in
        (* Error-budget burn: the windowed miss fraction over the SLO
           threshold, relative to the allowed miss budget (1 - target).
           1.0x means burning exactly at budget; above it the budget
           shrinks. *)
        let burn =
          match List.assoc_opt op slos with
          | None -> "-"
          | Some slo_s -> (
              match List.assoc_opt lat histograms with
              | None -> "-"
              | Some entry ->
                  let frac = Tf_obs.fraction_le (buckets_of entry) slo_s in
                  if Float.is_nan frac then "-"
                  else
                    Printf.sprintf "%.2fx" ((1. -. frac) /. (1. -. slo_target)))
        in
        p "%-10s %9.1f %9s %9s %9s %9.2f %8s\n" op
          (rate (Printf.sprintf "serve.%s.requests_total" op))
          (ms p50) (ms p95) (ms p99)
          (rate (Printf.sprintf "serve.%s.failures_total" op))
          burn)
      ops;
    let hit_pct h m =
      let t = h +. m in
      if t <= 0. then Float.nan else 100. *. h /. t
    in
    p "\ncache: memory %s hit | disk %s hit | computed/s %.1f\n"
      (pct
         (hit_pct
            (rate "memo.serve.schedule.hits_total")
            (rate "memo.serve.schedule.misses_total")))
      (pct (hit_pct (rate "serve.cache.disk_hits_total") (rate "serve.cache.disk_misses_total")))
      (rate "serve.cache.disk_misses_total");
    p "gc: minor/s %.1f | major/s %.2f | heap %.3e words | alloc/s %.3e words | rss %.0f MB\n"
      (rate "process.gc.minor_collections_total")
      (rate "process.gc.major_collections_total")
      (assoc_num gauges "process.gc.heap_words")
      (rate "process.gc.allocated_words_total")
      (assoc_num gauges "process.max_rss_bytes" /. 1048576.);
    Buffer.contents b
  in
  let run socket tcp interval once json timeout slo_specs slo_target =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    try
      let slos =
        List.map
          (fun spec ->
            match String.split_on_char '=' spec with
            | [ op; v ] -> (
                match float_of_string_opt v with
                | Some s -> (op, s)
                | None -> failwith (Printf.sprintf "bad --slo %S (expected OP=SECONDS)" spec))
            | _ -> failwith (Printf.sprintf "bad --slo %S (expected OP=SECONDS)" spec))
          slo_specs
      in
      let poll () =
        let payload = fetch ~socket ~tcp ~timeout in
        if json then print_endline payload
        else begin
          let screen = render ~slos ~slo_target (Json.parse payload) in
          if not once then print_string "\027[2J\027[H";
          print_string screen;
          flush stdout
        end
      in
      if once then poll ()
      else
        while true do
          poll ();
          Unix.sleepf interval
        done
    with
    | Failure msg ->
        Fmt.epr "transfusion top: %s@." msg;
        exit 1
    | Unix.Unix_error (e, _, _) ->
        Fmt.epr "transfusion top: %s@." (Unix.error_message e);
        exit 1
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) (Some "transfusion.sock")
      & info [ "socket" ] ~docv:"PATH" ~doc:"Daemon's Unix-domain socket path.")
  in
  let tcp_arg =
    Arg.(
      value
      & opt (some port_conv) None
      & info [ "tcp" ] ~docv:"PORT" ~doc:"Connect to loopback TCP port $(docv) instead.")
  in
  let interval_arg =
    Arg.(
      value
      & opt (positive_float_conv "interval") 2.0
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Polling period.")
  in
  let once_arg =
    Arg.(value & flag & info [ "once" ] ~doc:"Poll once and exit (no screen clearing).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the raw transfusion.stats/1 payload instead of the dashboard (NDJSON when \
             polling).")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (positive_float_conv "timeout") 10.
      & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Per-poll receive timeout.")
  in
  let slo_arg =
    Arg.(
      value & opt_all string []
      & info [ "slo" ] ~docv:"OP=SECONDS"
          ~doc:
            "Latency SLO threshold for an endpoint, e.g. schedule=0.050 (repeatable).  Adds an \
             error-budget burn column: windowed miss fraction over the threshold divided by the \
             allowed miss budget.")
  in
  let slo_target_arg =
    Arg.(
      value & opt fraction_conv 0.99
      & info [ "slo-target" ] ~docv:"FRACTION"
          ~doc:"SLO attainment target the burn rate is measured against.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live dashboard over a running daemon's stats op: windowed QPS, per-endpoint latency \
          quantiles, cache hit rates, GC pressure and SLO burn")
    Term.(
      const run $ socket_arg $ tcp_arg $ interval_arg $ once_arg $ json_arg $ timeout_arg
      $ slo_arg $ slo_target_arg)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info = Cmd.info "transfusion" ~version:"1.0.0" ~doc:"TransFusion end-to-end Transformer scheduling framework" in
  exit (Cmd.eval (Cmd.group ~default info [
         eval_cmd;
         sweep_cmd;
         search_cmd;
         schedule_cmd;
         explain_cmd;
         decode_cmd;
         simulate_cmd;
         serve_cmd;
         top_cmd;
         figures_cmd;
         ablations_cmd;
         structures_cmd;
         cascade_cmd;
         pareto_cmd;
         headline_cmd;
         selftest_cmd;
         lint_cmd;
         check_cmd;
         export_cmd;
       ]))
