(* Designing your own accelerator and model with the public API: a
   hypothetical 7 nm "workstation" part between the paper's cloud and
   edge points, and a small custom model, evaluated end to end — with an
   area estimate from the Accelergy component model and a CSV/bars
   report.

   Run with:  dune exec examples/custom_architecture.exe *)

module Strategies = Transfusion.Strategies
module Latency = Tf_costmodel.Latency

let () =
  (* 1. A custom technology node and the energy table it implies. *)
  let node = Tf_arch.Accelergy.scale_to_node Tf_arch.Accelergy.node_45nm ~target_nm:7 in
  let energy =
    Tf_arch.Accelergy.energy_table ~node ~buffer_bytes:(8 * 1024 * 1024) ~row_bytes:256 ()
  in
  Fmt.pr "7nm energy table: %a@." Tf_arch.Energy_table.pp energy;

  (* 2. A custom architecture: 96x96 2D array, wide 1D array, 8 MB buffer,
     LPDDR-class bandwidth. *)
  let arch =
    Tf_arch.Arch.v ~name:"workstation" ~clock_hz:1.2e9 ~energy
      ~pe_2d:(Tf_arch.Pe_array.two_d 96 96)
      ~pe_1d:(Tf_arch.Pe_array.one_d 512)
      ~buffer_bytes:(8 * 1024 * 1024)
      ~dram_bw_bytes_per_s:120e9 ()
  in
  Fmt.pr "architecture   : %a@." Tf_arch.Arch.pp arch;
  Fmt.pr "estimated area : %.1f mm^2@.@." (Tf_arch.Accelergy.arch_area_mm2 node arch);

  (* 3. A custom model: a 1.3B-class decoder configuration. *)
  let model =
    Tf_workloads.Model.v ~name:"custom-1p3b" ~d_model:2048 ~heads:16 ~head_dim:128
      ~ffn_hidden:8192 ~layers:24 ~activation:Tf_einsum.Scalar_op.Silu
  in
  let workload = Tf_workloads.Workload.v ~batch:16 model ~seq_len:32768 in
  Fmt.pr "workload       : %a@.@." Tf_workloads.Workload.pp workload;

  (* 4. Evaluate every strategy and render the comparison. *)
  let results =
    List.map
      (fun s -> (s, fst (Strategies.evaluate ~tileseek_iterations:100 arch workload s)))
      Strategies.all
  in
  let baseline = List.assoc Strategies.Unfused results in
  let bars =
    List.map
      (fun (s, r) -> (Strategies.name s, Strategies.speedup ~baseline r))
      results
  in
  print_string (Tf_experiments.Export.bar_chart ~title:"speedup over unfused" bars);

  (* 5. The decoder-only structure of the same model (GPT-style). *)
  let structure = Transfusion.Structures.decoder_only model in
  let dec =
    Transfusion.Structures.evaluate ~tileseek_iterations:100 arch workload structure
      Strategies.Transfusion
  in
  Fmt.pr "@.decoder-only stack with TransFusion: %.4e s@."
    dec.Transfusion.Structures.latency.Latency.total_s;

  (* 6. Export the series for plotting. *)
  let csv =
    Tf_experiments.Export.csv ~columns:[ "speedup" ]
      ~rows:(List.map (fun (name, v) -> (name, [ v ])) bars)
  in
  Fmt.pr "@.CSV:@.%s@." csv
