(* TileSeek in action: search the outer tiling space of a long-context
   edge deployment, watching feasibility (Table 2) prune the space and
   MCTS refine the grid seeds.

   Run with:  dune exec examples/tiling_search.exe *)

module Tileseek = Transfusion.Tileseek
module Strategies = Transfusion.Strategies
module Latency = Tf_costmodel.Latency

let describe = Fmt.to_to_string Tileseek.pp_config

let () =
  let arch = Tf_arch.Presets.edge in
  let workload = Tf_workloads.Workload.v Tf_workloads.Presets.bert ~seq_len:16384 in
  Fmt.pr "architecture: %a@." Tf_arch.Arch.pp arch;
  Fmt.pr "workload    : %a@.@." Tf_workloads.Workload.pp workload;

  let latency config =
    (fst (Strategies.evaluate ~tiling:config arch workload Strategies.Transfusion))
      .Strategies.latency.Latency.total_s
  in

  (* The buffer model (Table 2) decides which tilings are implementable. *)
  let buffer = Tf_arch.Arch.buffer_elements arch in
  Fmt.pr "on-chip buffer: %d elements@." buffer;
  List.iter
    (fun config ->
      let dims = Tileseek.dims arch workload config in
      Fmt.pr "  %-40s need=%9.0f  %s@." (describe config) (Transfusion.Buffer_req.worst dims)
        (if Tileseek.feasible arch workload config then "feasible" else "REJECTED"))
    [
      { Tileseek.b = 1; d = 64; p = 128; m1 = 1; m0 = 128; s = 256 };
      { Tileseek.b = 1; d = 768; p = 2048; m1 = 4; m0 = 512; s = 3072 };
      { Tileseek.b = 4; d = 128; p = 512; m1 = 1; m0 = 256; s = 512 };
    ];

  (* Heuristic seeds vs the MCTS search result. *)
  Fmt.pr "@.greedy variants:@.";
  List.iter
    (fun c -> Fmt.pr "  %-40s latency=%.4e s@." (describe c) (latency c))
    (Tileseek.greedy_variants arch workload);

  let result, _, stats = Strategies.search ~iterations:400 arch workload in
  let config = Option.get result.Strategies.tiling in
  Fmt.pr "@.TileSeek (MCTS %d iterations, %d terminals evaluated, %d tree nodes):@."
    stats.Transfusion.Mcts.iterations stats.Transfusion.Mcts.terminals_evaluated
    stats.Transfusion.Mcts.tree_nodes;
  Fmt.pr "  %-40s latency=%.4e s@." (describe config)
    result.Strategies.latency.Latency.total_s;

  (* What the tiling means for the full evaluation. *)
  let baseline, _ = Strategies.evaluate arch workload Strategies.Fusemax in
  Fmt.pr "@.TransFusion with this tiling: %.2fx over FuseMax@."
    (Strategies.speedup ~baseline result)
