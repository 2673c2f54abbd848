(* Integration tests of the five schedulers through the shared cost model:
   the orderings the paper's Figure 8 rests on, energy behaviour, traffic
   signatures and attribution plumbing. *)

module Strategies = Transfusion.Strategies
module Speedup = Transfusion.Speedup
module Latency = Tf_costmodel.Latency
module Energy = Tf_costmodel.Energy
module Traffic = Tf_costmodel.Traffic
module Phase = Tf_costmodel.Phase
open Tf_arch
open Tf_workloads

(* Small-but-real evaluation points; memoise locally since several tests
   share them. *)
let cache = Hashtbl.create 32

let eval arch w strategy =
  let key = (arch.Arch.name, w.Workload.seq_len, w.Workload.model.Model.name, strategy) in
  match Hashtbl.find_opt cache key with
  | Some r -> r
  | None ->
      let r, _ = Strategies.evaluate ~tileseek_iterations:60 arch w strategy in
      Hashtbl.add cache key r;
      r

let bert_4k = Workload.v Tf_workloads.Presets.bert ~seq_len:4096
let bert_64k = Workload.v Tf_workloads.Presets.bert ~seq_len:65536
let llama3_16k = Workload.v Tf_workloads.Presets.llama3 ~seq_len:16384

let total r = r.Strategies.latency.Latency.total_s

let test_names () =
  Alcotest.(check int) "five strategies" 5 (List.length Strategies.all);
  List.iter
    (fun s ->
      match Strategies.of_name (Strategies.name s) with
      | Some s' -> Alcotest.(check bool) "roundtrip" true (s = s')
      | None -> Alcotest.fail "name roundtrip failed")
    Strategies.all;
  Alcotest.(check bool) "unknown name" true (Strategies.of_name "magic" = None)

let test_ordering () =
  (* The qualitative claim of Figure 8: TransFusion >= FuseMax+LF >=
     FuseMax >= FLAT >= Unfused (1% tolerance for scheduling noise). *)
  List.iter
    (fun (arch, w) ->
      let t s = total (eval arch w s) in
      let le a b label = Alcotest.(check bool) label true (t a <= t b *. 1.01) in
      le Strategies.Transfusion Strategies.Fusemax_layerfuse
        (Printf.sprintf "%s: TF <= LF" arch.Arch.name);
      le Strategies.Transfusion Strategies.Fusemax (Printf.sprintf "%s: TF <= FM" arch.Arch.name);
      le Strategies.Fusemax Strategies.Flat (Printf.sprintf "%s: FM <= FLAT" arch.Arch.name);
      le Strategies.Flat Strategies.Unfused (Printf.sprintf "%s: FLAT <= Unfused" arch.Arch.name))
    [ (Tf_arch.Presets.cloud, bert_4k); (Tf_arch.Presets.edge, bert_4k); (Tf_arch.Presets.cloud, llama3_16k); (Tf_arch.Presets.edge, llama3_16k) ]

let test_fusion_cuts_dram_traffic () =
  List.iter
    (fun arch ->
      let dram s = Traffic.dram_elements (eval arch bert_4k s).Strategies.traffic in
      Alcotest.(check bool) "FLAT < Unfused traffic" true
        (dram Strategies.Flat < dram Strategies.Unfused);
      Alcotest.(check bool) "LayerFuse < FuseMax traffic" true
        (dram Strategies.Fusemax_layerfuse < dram Strategies.Fusemax))
    [ Tf_arch.Presets.cloud; Tf_arch.Presets.edge ]

let test_unfused_score_traffic () =
  (* Unfused writes the quadratic scores off-chip; the fused strategies
     never do, so its DRAM traffic must dominate by roughly B*H*N^2. *)
  let unfused = eval Tf_arch.Presets.cloud bert_4k Strategies.Unfused in
  let fusemax = eval Tf_arch.Presets.cloud bert_4k Strategies.Fusemax in
  let scores = 64. *. 12. *. (4096. *. 4096.) in
  Alcotest.(check bool) "score traffic present" true
    (Traffic.dram_elements unfused.Strategies.traffic
     -. Traffic.dram_elements fusemax.Strategies.traffic
    > scores)

let test_energy_ordering () =
  List.iter
    (fun arch ->
      let baseline = eval arch bert_4k Strategies.Unfused in
      let ratio s = Strategies.energy_ratio ~baseline (eval arch bert_4k s) in
      Alcotest.(check bool) "fused energy below unfused" true (ratio Strategies.Fusemax_layerfuse < 1.);
      Alcotest.(check bool) "transfusion energy below unfused" true (ratio Strategies.Transfusion < 1.))
    [ Tf_arch.Presets.cloud; Tf_arch.Presets.edge ]

let test_transfusion_tiling_feasible () =
  List.iter
    (fun (arch, w) ->
      match (eval arch w Strategies.Transfusion).Strategies.tiling with
      | Some c -> Alcotest.(check bool) "tiling feasible" true (Transfusion.Tileseek.feasible arch w c)
      | None -> Alcotest.fail "TransFusion must report its tiling")
    [ (Tf_arch.Presets.cloud, bert_4k); (Tf_arch.Presets.edge, llama3_16k) ]

let test_baselines_report_no_tiling () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (Strategies.name s) true
        ((eval Tf_arch.Presets.cloud bert_4k s).Strategies.tiling = None))
    [ Strategies.Unfused; Strategies.Flat; Strategies.Fusemax ]

let test_phase_structure () =
  let phases s =
    let phases, _, _ = Strategies.phases ~tileseek_iterations:40 Tf_arch.Presets.cloud bert_4k s in
    phases
  in
  Alcotest.(check int) "unfused: one phase per module" 4 (List.length (phases Strategies.Unfused));
  Alcotest.(check int) "flat: one phase per module" 4 (List.length (phases Strategies.Flat));
  Alcotest.(check int) "transfusion: one fused phase" 1 (List.length (phases Strategies.Transfusion));
  match phases Strategies.Transfusion with
  | [ p ] ->
      Alcotest.(check bool) "fused phase kind" true (p.Phase.kind = Phase.Fused_stack);
      let parts_total = List.fold_left (fun acc (_, f) -> acc +. f) 0. p.Phase.parts in
      Alcotest.(check (float 1e-9)) "parts sum to 1" 1. parts_total
  | _ -> Alcotest.fail "unexpected phase count"

let test_speedup_helpers () =
  let a = eval Tf_arch.Presets.cloud bert_4k Strategies.Unfused in
  let b = eval Tf_arch.Presets.cloud bert_4k Strategies.Transfusion in
  Alcotest.(check (float 1e-9)) "self speedup" 1. (Strategies.speedup ~baseline:a a);
  Alcotest.(check bool) "speedup consistent" true
    (Float.abs (Strategies.speedup ~baseline:a b -. (total a /. total b)) < 1e-12)

let test_attribution () =
  let baseline = (eval Tf_arch.Presets.cloud bert_64k Strategies.Fusemax).Strategies.latency in
  let optimized = (eval Tf_arch.Presets.cloud bert_64k Strategies.Transfusion).Strategies.latency in
  let entries = Speedup.attribute ~baseline ~optimized in
  Alcotest.(check int) "four buckets" 4 (List.length entries);
  let contributions = List.fold_left (fun acc e -> acc +. e.Speedup.contribution) 0. entries in
  Alcotest.(check (float 1e-6)) "contributions sum to 1" 1. contributions;
  List.iter
    (fun e -> Alcotest.(check bool) "non-negative" true (e.Speedup.contribution >= 0.))
    entries;
  Alcotest.(check (list string)) "bucket order" [ "QKV"; "MHA"; "LayerNorm"; "FFN" ]
    (List.map (fun e -> Phase.layer_kind_to_string e.Speedup.kind) entries)

let test_edge_behaviour () =
  (* On edge the paper's headline effect: TransFusion gains more than on
     cloud because DPipe balances matmuls across both arrays. *)
  let gain arch =
    let fm = eval arch llama3_16k Strategies.Fusemax in
    Strategies.speedup ~baseline:fm (eval arch llama3_16k Strategies.Transfusion)
  in
  Alcotest.(check bool) "edge gain over FuseMax exceeds cloud gain" true
    (gain Tf_arch.Presets.edge > gain Tf_arch.Presets.cloud);
  Alcotest.(check bool) "edge gain is substantial" true (gain Tf_arch.Presets.edge > 1.2)

let test_utilization_shift () =
  (* TransFusion raises 1D utilization on edge (paper Figure 10 mirror). *)
  let util_1d s = (eval Tf_arch.Presets.edge llama3_16k s).Strategies.latency.Latency.util_1d in
  Alcotest.(check bool) "1D utilization rises" true
    (util_1d Strategies.Transfusion > util_1d Strategies.Fusemax +. 0.2)

let test_objectives () =
  (* The energy objective never yields more energy than the latency
     objective; the latency objective never yields more latency. *)
  let w = llama3_16k and arch = Tf_arch.Presets.edge in
  let by obj =
    fst (Strategies.evaluate ~tileseek_iterations:60 ~objective:obj arch w Strategies.Transfusion)
  in
  let lat_first = by Strategies.Latency_obj and energy_first = by Strategies.Energy_obj in
  Alcotest.(check bool) "energy objective saves energy" true
    (Energy.total_pj energy_first.Strategies.energy
    <= Energy.total_pj lat_first.Strategies.energy *. 1.001);
  Alcotest.(check bool) "latency objective saves latency" true
    (total lat_first <= total energy_first *. 1.001)

let test_clock_scaling () =
  (* For a compute-bound point, doubling the clock halves the latency. *)
  let base = Tf_arch.Presets.edge in
  let fast =
    Arch.v ~name:"edge-2x" ~clock_hz:(2. *. base.Arch.clock_hz)
      ~element_bytes:base.Arch.element_bytes ~vector_eff_2d:base.Arch.vector_eff_2d
      ~matrix_eff_1d:base.Arch.matrix_eff_1d ~energy:base.Arch.energy ~pe_2d:base.Arch.pe_2d
      ~pe_1d:base.Arch.pe_1d ~buffer_bytes:base.Arch.buffer_bytes
      ~dram_bw_bytes_per_s:base.Arch.dram_bw_bytes_per_s ()
  in
  let slow, _ = Strategies.evaluate ~tileseek_iterations:40 base bert_4k Strategies.Fusemax in
  let quick, _ = Strategies.evaluate ~tileseek_iterations:40 fast bert_4k Strategies.Fusemax in
  Alcotest.(check bool) "2x clock ~ 2x faster when compute bound" true
    (Float.abs ((total slow /. total quick) -. 2.) < 0.2)

let test_adaptive_fusion_scope () =
  (* TransFusion emits either the full-stack or the intra-layer phase;
     both carry the Fused_stack kind and a sane traffic record. *)
  List.iter
    (fun (arch, w) ->
      match Strategies.phases ~tileseek_iterations:40 arch w Strategies.Transfusion with
      | [ p ], _, _ ->
          Alcotest.(check bool) "named variant" true
            (p.Phase.name = "stack(transfusion)" || p.Phase.name = "layers(transfusion)");
          Alcotest.(check bool) "positive dram traffic" true
            (Traffic.dram_elements p.Phase.traffic > 0.)
      | _ -> Alcotest.fail "expected one fused phase")
    [ (Tf_arch.Presets.cloud, bert_4k); (Tf_arch.Presets.edge, llama3_16k) ]

let test_layers_scaling () =
  (* Latency is linear in the layer count for a fixed workload. *)
  let one, _ = Strategies.evaluate ~tileseek_iterations:40 ~layers:1 Tf_arch.Presets.edge bert_4k Strategies.Fusemax in
  let four, _ = Strategies.evaluate ~tileseek_iterations:40 ~layers:4 Tf_arch.Presets.edge bert_4k Strategies.Fusemax in
  Alcotest.(check bool) "4 layers ~ 4x one layer" true
    (Float.abs ((total four /. total one) -. 4.) < 0.05)

let test_dpipe_key_carries_model () =
  (* Regression: the shared DPipe memo keyed models by name, but the FFN
     activation changes per-op loads, so a Gelu model evaluated after a
     same-name Relu model was answered with the Relu schedule. *)
  let eval activation =
    let model =
      Model.v ~name:"same" ~d_model:64 ~heads:4 ~head_dim:16 ~ffn_hidden:256 ~layers:2 ~activation
    in
    fst
      (Strategies.evaluate ~tileseek_iterations:20 Tf_arch.Presets.edge
         (Workload.v ~batch:4 model ~seq_len:1024)
         Strategies.Transfusion)
  in
  Tf_experiments.Exp_common.reset_cache ();
  let alone = eval Tf_einsum.Scalar_op.Gelu in
  Tf_experiments.Exp_common.reset_cache ();
  ignore (eval Tf_einsum.Scalar_op.Relu : Strategies.result);
  let after_relu = eval Tf_einsum.Scalar_op.Gelu in
  Alcotest.(check bool) "latency independent of what ran earlier" true
    (Int64.equal (Int64.bits_of_float (total alone)) (Int64.bits_of_float (total after_relu)));
  Alcotest.(check bool) "tiling independent of what ran earlier" true
    (alone.Strategies.tiling = after_relu.Strategies.tiling)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "transfusion_strategies"
    [
      ( "strategies",
        [
          quick "names" test_names;
          quick "latency ordering (Fig 8 claim)" test_ordering;
          quick "fusion cuts DRAM traffic" test_fusion_cuts_dram_traffic;
          quick "unfused pays score traffic" test_unfused_score_traffic;
          quick "energy ordering" test_energy_ordering;
          quick "transfusion tiling feasible" test_transfusion_tiling_feasible;
          quick "baselines report no tiling" test_baselines_report_no_tiling;
          quick "phase structure" test_phase_structure;
          quick "speedup helpers" test_speedup_helpers;
          quick "Eq. 47-48 attribution" test_attribution;
          quick "edge vs cloud gains" test_edge_behaviour;
          quick "utilization shift on edge" test_utilization_shift;
          quick "search objectives" test_objectives;
          quick "clock scaling" test_clock_scaling;
          quick "adaptive fusion scope" test_adaptive_fusion_scope;
          quick "layer-count linearity" test_layers_scaling;
          quick "DPipe memo keyed by the full model" test_dpipe_key_carries_model;
        ] );
    ]
