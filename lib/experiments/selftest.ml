module Strategies = Transfusion.Strategies
module Latency = Tf_costmodel.Latency
open Tf_workloads

type check = { name : string; passed : bool; detail : string }

let check name passed detail = { name; passed; detail }

let ordering_checks archs w =
  List.map
    (fun (arch : Tf_arch.Arch.t) ->
      let total s =
        (Exp_common.evaluate ~tileseek_iterations:60 arch w s).Strategies.latency.Latency.total_s
      in
      let tf = total Strategies.Transfusion
      and lf = total Strategies.Fusemax_layerfuse
      and fm = total Strategies.Fusemax
      and flat = total Strategies.Flat
      and uf = total Strategies.Unfused in
      let ok = tf <= lf *. 1.01 && lf <= fm *. 1.02 && fm <= flat *. 1.01 && flat <= uf *. 1.01 in
      check
        (Printf.sprintf "strategy ordering (%s)" arch.Tf_arch.Arch.name)
        ok
        (Printf.sprintf "tf=%.3e lf=%.3e fm=%.3e flat=%.3e uf=%.3e" tf lf fm flat uf))
    archs

let utilization_checks archs w =
  List.map
    (fun (arch : Tf_arch.Arch.t) ->
      let ok =
        List.for_all
          (fun s ->
            let r = Exp_common.evaluate ~tileseek_iterations:60 arch w s in
            let u2 = r.Strategies.latency.Latency.util_2d
            and u1 = r.Strategies.latency.Latency.util_1d in
            u2 >= 0. && u2 <= 1.02 && u1 >= 0. && u1 <= 1.02)
          Strategies.all
      in
      check (Printf.sprintf "utilization in range (%s)" arch.Tf_arch.Arch.name) ok "")
    archs

let tiling_checks archs w =
  List.map
    (fun (arch : Tf_arch.Arch.t) ->
      let r = Exp_common.evaluate ~tileseek_iterations:60 arch w Strategies.Transfusion in
      let ok =
        match r.Strategies.tiling with
        | Some c -> Transfusion.Tileseek.feasible arch w c
        | None -> false
      in
      check (Printf.sprintf "TileSeek feasibility (%s)" arch.Tf_arch.Arch.name) ok "")
    archs

let dpipe_replay_checks archs w =
  List.map
    (fun (arch : Tf_arch.Arch.t) ->
      let { Transfusion.Layer_costs.load; matrix; dag = g; plan; _ } = Strategies.layer_problem w in
      let sched = Transfusion.Dpipe.schedule arch ~load ~matrix plan in
      let schedule_valid =
        not (Tf_analysis.Diagnostic.has_errors (Tf_analysis.Sched_lint.verify g sched))
      in
      let replay_ok =
        match Transfusion.Pipeline_sim.replay arch ~load ~matrix g sched with
        | Ok outcome -> Transfusion.Pipeline_sim.agrees sched outcome
        | Error _ -> false
      in
      check
        (Printf.sprintf "DPipe schedule valid and replayable (%s)" arch.Tf_arch.Arch.name)
        (schedule_valid && replay_ok) "")
    archs

let cascade_roundtrip_check () =
  let cascades =
    [
      Transfusion.Cascades.qkv ();
      Transfusion.Cascades.mha ();
      Transfusion.Cascades.add_layernorm ();
      Transfusion.Cascades.full_layer Tf_einsum.Scalar_op.Gelu;
    ]
  in
  let ok =
    List.for_all
      (fun c ->
        match Tf_einsum.Parser.cascade_of_string (Tf_einsum.Parser.cascade_to_string c) with
        | Ok parsed -> Tf_einsum.Cascade.length parsed = Tf_einsum.Cascade.length c
        | Error _ -> false)
      cascades
  in
  check "cascade text round-trip" ok ""

let mapper_bound_check (arch : Tf_arch.Arch.t) =
  let extents = Tf_einsum.Extents.of_list [ ("m", 256); ("k", 64); ("n", 64) ] in
  let matmul =
    Tf_einsum.Einsum.contraction
      (Tf_einsum.Tensor_ref.v "Z" [ "m"; "n" ])
      [ Tf_einsum.Tensor_ref.v "A" [ "m"; "k" ]; Tf_einsum.Tensor_ref.v "B" [ "k"; "n" ] ]
  in
  let ok =
    match Tf_costmodel.Mapper.search arch extents matmul with
    | Ok (_, traffic, _) -> traffic >= Tf_costmodel.Mapper.traffic_lower_bound extents matmul
    | Error _ -> false
  in
  check "mapper respects compulsory traffic" ok ""

let analysis_checks archs w =
  let clean name diags =
    check name
      (not (Tf_analysis.Diagnostic.has_errors diags))
      (Tf_analysis.Diagnostic.summary diags)
  in
  let builtin = clean "static analysis: built-in cascades lint clean" (Tf_analysis.Verify.lint_builtins ()) in
  let pipelines =
    List.concat_map
      (fun (arch : Tf_arch.Arch.t) ->
        List.map
          (fun (label, attention) ->
            clean
              (Printf.sprintf "static analysis: %s pipeline verifies (%s)" label
                 arch.Tf_arch.Arch.name)
              (Tf_analysis.Verify.pipeline ~attention arch w))
          [ ("self", Strategies.Self); ("causal", Strategies.Causal_self) ])
      archs
  in
  (* Negative control: a schedule with a corrupted makespan must be rejected,
     otherwise the sanitizers above prove nothing. *)
  let negative =
    let arch = List.hd archs in
    let { Transfusion.Layer_costs.load; matrix; dag = g; plan; _ } =
      Transfusion.Layer_costs.problem w (Transfusion.Cascades.mha ())
    in
    let sched = Transfusion.Dpipe.schedule arch ~load ~matrix plan in
    let bad = { sched with Transfusion.Dpipe.makespan_cycles = -1.0 } in
    let diags = Tf_analysis.Sched_lint.verify ~name:"negative-control" g bad in
    check "static analysis: verifier rejects corrupted schedule"
      (Tf_analysis.Diagnostic.has_errors diags)
      (Tf_analysis.Diagnostic.summary diags)
  in
  (builtin :: pipelines) @ [ negative ]

let numeric_check () =
  let state = Random.State.make [| 99 |] in
  let w = Tf_tensor.Transformer.random_weights state ~d_model:16 ~ffn_hidden:32 in
  let x = Tf_tensor.Nd.random state [| 8; 16 |] in
  let reference = Tf_tensor.Transformer.reference ~heads:2 ~activation:Tf_einsum.Scalar_op.Gelu w x in
  let fused =
    Tf_tensor.Transformer.fused_tiled ~heads:2 ~activation:Tf_einsum.Scalar_op.Gelu ~tile_p:4
      ~tile_m0:2 ~tile_s:8 w x
  in
  check "fused dataflow numerically exact" (Tf_tensor.Nd.max_abs_diff reference fused < 1e-9) ""

let run ?(quick = true) () =
  let archs =
    if quick then [ Tf_arch.Presets.cloud; Tf_arch.Presets.edge ] else Tf_arch.Presets.all
  in
  let w = Workload.v Presets.t5 ~seq_len:(if quick then 4096 else 16384) in
  ordering_checks archs w
  @ utilization_checks archs w
  @ tiling_checks archs w
  @ dpipe_replay_checks archs w
  @ analysis_checks archs w
  @ [ cascade_roundtrip_check (); mapper_bound_check (List.hd archs); numeric_check () ]

let all_passed checks = List.for_all (fun c -> c.passed) checks

let print checks =
  List.iter
    (fun c ->
      Printf.printf "%-55s %s%s\n" c.name
        (if c.passed then "PASS" else "FAIL")
        (if c.detail = "" then "" else "  (" ^ c.detail ^ ")"))
    checks;
  let failed = List.length (List.filter (fun c -> not c.passed) checks) in
  Printf.printf "%d checks, %d failed\n" (List.length checks) failed
