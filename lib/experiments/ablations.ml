open Tf_workloads
module Strategies = Transfusion.Strategies
module Dpipe = Transfusion.Dpipe
module Tileseek = Transfusion.Tileseek
module Latency = Tf_costmodel.Latency
module Energy = Tf_costmodel.Energy

let archs = [ Tf_arch.Presets.cloud; Tf_arch.Presets.edge ]

(* ------------------------------------------------------------------ *)
(* DPipe scheduling-mode ladder                                        *)

type dpipe_row = {
  arch : string;
  dag : string;
  sequential : float;
  static_pipelined : float;
  dp : float;
}

let dpipe_dag_costs (arch : Tf_arch.Arch.t) w (label, cascade) =
  let { Transfusion.Layer_costs.load; matrix; dag = g; plan; _ } =
    Transfusion.Layer_costs.problem w cascade
  in
  let native n = if matrix n then Tf_arch.Arch.Pe_2d else Tf_arch.Arch.Pe_1d in
  let static = Dpipe.schedule ~mode:(`Static native) arch ~load ~matrix plan in
  let dp = Dpipe.schedule ~mode:`Dp arch ~load ~matrix plan in
  let verify tag sched =
    Exp_common.require_clean
      (Printf.sprintf "%s %s schedule (%s)" label tag arch.Tf_arch.Arch.name)
      (Tf_analysis.Sched_lint.verify ~name:(label ^ "/" ^ tag) g sched)
  in
  verify "static" static;
  verify "dp" dp;
  {
    arch = arch.Tf_arch.Arch.name;
    dag = label;
    sequential = Dpipe.sequential_cycles arch ~load ~matrix g;
    static_pipelined = static.Dpipe.steady_interval_cycles;
    dp = dp.Dpipe.steady_interval_cycles;
  }

let dpipe (model : Model.t) =
  let w = Workload.v model ~seq_len:65536 in
  let dags =
    [
      ("mha", Transfusion.Cascades.mha ());
      ("full-layer", Transfusion.Cascades.full_layer model.Model.activation);
    ]
  in
  Exp_common.par_map
    (fun (arch, dag) -> dpipe_dag_costs arch w dag)
    (List.concat_map (fun arch -> List.map (fun dag -> (arch, dag)) dags) archs)

let print_dpipe rows =
  Exp_common.print_header "Ablation: DPipe scheduling ladder (cycles per epoch, lower is better)";
  Exp_common.print_series_table ~row_label:"arch/dag"
    ~columns:[ "sequential"; "static-pipe"; "dp"; "dp-speedup" ]
    ~rows:
      (List.map
         (fun r ->
           ( Printf.sprintf "%s/%s" r.arch r.dag,
             [ r.sequential; r.static_pipelined; r.dp; r.sequential /. r.dp ] ))
         rows)
    ()

(* ------------------------------------------------------------------ *)
(* TileSeek stages                                                     *)

type tileseek_row = {
  arch : string;
  fallback_cost : float;
  greedy_cost : float;
  search_cost : float;
}

let tileseek ?(iterations = 200) (model : Model.t) =
  Exp_common.par_map
    (fun (arch : Tf_arch.Arch.t) ->
      let w = Workload.v model ~seq_len:16384 in
      let latency config =
        (fst (Strategies.evaluate ~tiling:config arch w Strategies.Transfusion)).Strategies.latency
          .Latency.total_s
      in
      let verify_tiling tag config =
        Exp_common.require_clean
          (Printf.sprintf "%s tiling (%s)" tag arch.Tf_arch.Arch.name)
          (Tf_analysis.Tiling_lint.verify ~name:tag arch w config)
      in
      let fallback = Tileseek.fallback arch w in
      verify_tiling "fallback" fallback;
      let greedy_cost =
        List.fold_left Float.min infinity
          (List.map
             (fun c ->
               verify_tiling "greedy" c;
               latency c)
             (Tileseek.greedy_variants arch w))
      in
      let searched, _, _ = Strategies.search ~iterations arch w in
      Option.iter (verify_tiling "searched") searched.Strategies.tiling;
      {
        arch = arch.Tf_arch.Arch.name;
        fallback_cost = latency fallback;
        greedy_cost;
        search_cost = searched.Strategies.latency.Latency.total_s;
      })
    archs

let print_tileseek rows =
  Exp_common.print_header "Ablation: TileSeek stages (TransFusion latency in seconds)";
  Exp_common.print_series_table ~row_label:"arch"
    ~columns:[ "fallback"; "greedy"; "search"; "search-gain" ]
    ~rows:
      (List.map
         (fun r ->
           ( r.arch,
             [ r.fallback_cost; r.greedy_cost; r.search_cost; r.fallback_cost /. r.search_cost ] ))
         rows)
    ()

(* ------------------------------------------------------------------ *)
(* Cross-array efficiency sensitivity                                  *)

type sensitivity_row = { arch : string; knob : string; value : float; tf_over_fm : float }

let with_effs (a : Tf_arch.Arch.t) ~vector_eff_2d ~matrix_eff_1d =
  Tf_arch.Arch.v ~name:a.Tf_arch.Arch.name ~clock_hz:a.Tf_arch.Arch.clock_hz
    ~element_bytes:a.Tf_arch.Arch.element_bytes ~vector_eff_2d ~matrix_eff_1d
    ~energy:a.Tf_arch.Arch.energy ~pe_2d:a.Tf_arch.Arch.pe_2d ~pe_1d:a.Tf_arch.Arch.pe_1d
    ~buffer_bytes:a.Tf_arch.Arch.buffer_bytes
    ~dram_bw_bytes_per_s:a.Tf_arch.Arch.dram_bw_bytes_per_s ()

let tf_over_fm arch w =
  let eval s = Exp_common.verify_result (Strategies.evaluate ~tileseek_iterations:60 arch w s) in
  Strategies.speedup ~baseline:(eval Strategies.Fusemax) (eval Strategies.Transfusion)

let sensitivity (model : Model.t) =
  let w = Workload.v model ~seq_len:65536 in
  let sweep base knob values =
    Exp_common.par_map
      (fun value ->
        let arch =
          match knob with
          | "vector_eff_2d" -> with_effs base ~vector_eff_2d:value ~matrix_eff_1d:base.Tf_arch.Arch.matrix_eff_1d
          | _ -> with_effs base ~vector_eff_2d:base.Tf_arch.Arch.vector_eff_2d ~matrix_eff_1d:value
        in
        { arch = base.Tf_arch.Arch.name; knob; value; tf_over_fm = tf_over_fm arch w })
      values
  in
  sweep Tf_arch.Presets.cloud "vector_eff_2d" [ 0.125; 0.25; 0.5; 1.0 ]
  @ sweep Tf_arch.Presets.edge "matrix_eff_1d" [ 0.25; 0.5; 0.75; 1.0 ]

let print_sensitivity rows =
  Exp_common.print_header "Ablation: cross-array efficiency sensitivity (TF speedup over FuseMax)";
  Exp_common.print_series_table ~row_label:"arch/knob=value" ~columns:[ "tf/fm" ]
    ~rows:
      (List.map
         (fun r -> (Printf.sprintf "%s/%s=%.3f" r.arch r.knob r.value, [ r.tf_over_fm ]))
         rows)
    ()

(* ------------------------------------------------------------------ *)
(* Batch study                                                         *)

type batch_row = { arch : string; batch : int; tf_over_fm : float; tf_over_unfused : float }

let batch (model : Model.t) =
  Exp_common.par_concat_map
    (fun (arch : Tf_arch.Arch.t) ->
      List.map
        (fun batch ->
          let w = Workload.v ~batch model ~seq_len:16384 in
          let eval s =
            Exp_common.verify_result (Strategies.evaluate ~tileseek_iterations:60 arch w s)
          in
          let unfused = eval Strategies.Unfused and fm = eval Strategies.Fusemax in
          let tf = eval Strategies.Transfusion in
          {
            arch = arch.Tf_arch.Arch.name;
            batch;
            tf_over_fm = Strategies.speedup ~baseline:fm tf;
            tf_over_unfused = Strategies.speedup ~baseline:unfused tf;
          })
        [ 1; 8; 64 ])
    archs

let print_batch rows =
  Exp_common.print_header "Ablation: batch size (TransFusion speedups)";
  Exp_common.print_series_table ~row_label:"arch/batch" ~columns:[ "tf/fusemax"; "tf/unfused" ]
    ~rows:
      (List.map
         (fun r -> (Printf.sprintf "%s/B=%d" r.arch r.batch, [ r.tf_over_fm; r.tf_over_unfused ]))
         rows)
    ()

(* ------------------------------------------------------------------ *)
(* Search objective study                                              *)

type objective_row = { arch : string; objective : string; latency_s : float; energy_j : float }

let objectives (model : Model.t) =
  let w = Workload.v model ~seq_len:16384 in
  Exp_common.par_concat_map
    (fun (arch : Tf_arch.Arch.t) ->
      List.map
        (fun (label, objective) ->
          let r =
            Exp_common.verify_result
              (Strategies.evaluate ~tileseek_iterations:100 ~objective arch w Strategies.Transfusion)
          in
          {
            arch = arch.Tf_arch.Arch.name;
            objective = label;
            latency_s = r.Strategies.latency.Latency.total_s;
            energy_j = Energy.total_pj r.Strategies.energy /. 1e12;
          })
        [
          ("latency", Strategies.Latency_obj);
          ("energy", Strategies.Energy_obj);
          ("edp", Strategies.Edp_obj);
        ])
    archs

let print_objectives rows =
  Exp_common.print_header "Ablation: TileSeek reward objective (TransFusion)";
  Exp_common.print_series_table ~row_label:"arch/objective" ~columns:[ "latency(s)"; "energy(J)" ]
    ~rows:
      (List.map
         (fun r -> (Printf.sprintf "%s/%s" r.arch r.objective, [ r.latency_s; r.energy_j ]))
         rows)
    ()
