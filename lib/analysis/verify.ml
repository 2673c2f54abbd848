open Tf_einsum
open Tf_workloads
module Cascades = Transfusion.Cascades
module Dpipe = Transfusion.Dpipe
module Layer_costs = Transfusion.Layer_costs
module Strategies = Transfusion.Strategies
module Tileseek = Transfusion.Tileseek

let builtin_cascades () =
  [
    ("qkv", Cascades.qkv ());
    ("mha", Cascades.mha ());
    ("add_layernorm", Cascades.add_layernorm ());
    ("ffn", Cascades.ffn Scalar_op.Gelu);
    ("full_layer", Cascades.full_layer Scalar_op.Gelu);
  ]

let lint_builtins () =
  let w = Workload.v Presets.t5 ~seq_len:16384 in
  let extents = Layer_costs.tile_extents w ~m0:(Extents.find (Workload.extents w) "m0") in
  List.concat_map (fun (_, cascade) -> Ir_lint.lint ~extents cascade) (builtin_cascades ())

let layer_name (arch : Tf_arch.Arch.t) (p : Layer_costs.problem) attention =
  Printf.sprintf "dpipe(%s/%s/%s)" arch.Tf_arch.Arch.name (Cascade.name p.Layer_costs.cascade)
    (Strategies.attention_name attention)

(* IR lints of the problem's cascade under its tile extents, and the
   checks of its schedule. *)
let layer_diags arch attention (p : Layer_costs.problem) sched =
  Ir_lint.lint ~extents:p.Layer_costs.extents p.Layer_costs.cascade
  @ Sched_lint.verify ~name:(layer_name arch p attention) p.Layer_costs.dag sched

let pipeline ?(attention = Strategies.Self) (arch : Tf_arch.Arch.t) (w : Workload.t) =
  let ({ Layer_costs.plan; load; matrix; _ } as problem) = Strategies.layer_problem ~attention w in
  layer_diags arch attention problem (Dpipe.schedule arch ~load ~matrix plan)

(* The execution a TransFusion result was priced with: the layer's DPipe
   run and, where the static alternative is served, the FuseMax-pinned
   attention it runs, on the arrays [fusemax_assign] pins. *)
let execution arch attention (e : Strategies.execution) =
  let { Strategies.problem; schedule } = e.Strategies.dpipe in
  layer_diags arch attention problem (Lazy.force schedule)
  @
  match e.Strategies.static_mha with
  | None -> []
  | Some { Strategies.problem = { Layer_costs.cascade; dag; _ } as p; schedule } ->
      let name = layer_name arch p attention and sched = Lazy.force schedule in
      Sched_lint.verify ~name dag sched
      @ Sched_lint.pinned ~name ~pin:(Strategies.fusemax_assign arch cascade) dag sched

let strategy_result ((r : Strategies.result), exec) =
  let arch = r.Strategies.arch and w = r.Strategies.workload in
  let attention = r.Strategies.attention in
  let a = Strategies.attention_dims ~attention w in
  let tiling_diags =
    match r.Strategies.tiling with
    | None -> []
    | Some config ->
        let name =
          Printf.sprintf "tiling(%s/%s/%d/%s)" arch.Tf_arch.Arch.name w.model.Model.name w.seq_len
            (Strategies.attention_name attention)
        in
        Tiling_lint.verify ~name ~kv_len:a.Strategies.kv_len ~decode:a.Strategies.decode arch w
          config
  in
  let exec_diags =
    match (exec, r.Strategies.strategy) with
    | Some e, _ -> execution arch attention e
    | None, Strategies.Transfusion ->
        invalid_arg "Verify.strategy_result: a TransFusion result comes with its execution"
    | ( None,
        (Strategies.Unfused | Strategies.Flat | Strategies.Fusemax | Strategies.Fusemax_layerfuse) )
      ->
        []
  in
  tiling_diags @ exec_diags

let check_presets ?(quick = true) () =
  let archs = if quick then [ Tf_arch.Presets.cloud; Tf_arch.Presets.edge ] else Tf_arch.Presets.all in
  let models = if quick then [ Presets.llama3 ] else Presets.all in
  let tiling_diags (arch : Tf_arch.Arch.t) (w : Workload.t) =
    let name config_label =
      Printf.sprintf "tiling(%s/%s/%s)" arch.Tf_arch.Arch.name w.model.Model.name config_label
    in
    Tiling_lint.verify ~name:(name "fallback") arch w (Tileseek.fallback arch w)
    @ List.concat_map
        (Tiling_lint.verify ~name:(name "greedy") arch w)
        (Tileseek.greedy_variants arch w)
  in
  lint_builtins ()
  @ List.concat_map
      (fun (arch : Tf_arch.Arch.t) ->
        List.concat_map
          (fun model ->
            let w = Workload.v model ~seq_len:16384 in
            tiling_diags arch w
            @ pipeline ~attention:Strategies.Self arch w
            @ pipeline ~attention:Strategies.Causal_self arch w)
          models)
      archs

let certify_range ?attention ?batch ?seq ?policy arch model ~lo ~hi ?step () =
  let step = Option.value step ~default:lo in
  Range_cert.certify ?attention ?batch ?seq ?policy arch model { Range_cert.lo; hi; step }
