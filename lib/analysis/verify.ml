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

let default_workload () = Workload.v Presets.t5 ~seq_len:16384

let lint_builtins ?workload () =
  let w = match workload with Some w -> w | None -> default_workload () in
  let extents = Layer_costs.tile_extents w ~m0:(Extents.find (Workload.extents w) "m0") in
  List.concat_map (fun (_, cascade) -> Ir_lint.lint ~extents cascade) (builtin_cascades ())

(* The balanced inner key/value tile the strategies use by default —
   must stay in sync with [Strategies.make_ctx]. *)
let default_m0 (_w : Workload.t) ~kv_len = Workload.default_m0 kv_len

let layer_cascade (w : Workload.t) ~include_ffn =
  if include_ffn then Cascades.full_layer w.model.Model.activation
  else
    Cascade.concat ~name:"transformer_layer_noffn"
      [ Cascades.qkv (); Cascades.mha (); Cascades.add_layernorm () ]

let attention_tag = function
  | Strategies.Self -> "self"
  | Strategies.Causal_self -> "causal"
  | Strategies.Cross { kv_len } -> Printf.sprintf "cross%d" kv_len
  | Strategies.Decode { kv_len } -> Printf.sprintf "decode%d" kv_len

let pipeline ?(attention = Strategies.Self) ?(include_ffn = true) ?m0 (arch : Tf_arch.Arch.t)
    (w : Workload.t) =
  let kv_len =
    match attention with
    | Strategies.Cross { kv_len } | Strategies.Decode { kv_len } -> kv_len
    | Strategies.Self | Strategies.Causal_self -> w.seq_len
  in
  let kv_proj_len =
    match attention with Strategies.Decode _ -> w.seq_len | _ -> kv_len
  in
  let causal = attention = Strategies.Causal_self in
  let m0 = match m0 with Some v -> v | None -> default_m0 w ~kv_len in
  let cascade = layer_cascade w ~include_ffn in
  let name =
    Printf.sprintf "dpipe(%s/%s/%s)" arch.Tf_arch.Arch.name (Cascade.name cascade)
      (attention_tag attention)
  in
  let totals = Array.of_list (Layer_costs.op_totals ~m0 ~kv_len ~kv_proj_len ~causal w cascade) in
  let g = Cascade.to_dag cascade in
  let load n = totals.(n).Layer_costs.total /. 256. in
  let matrix n = Einsum.is_matrix_op totals.(n).Layer_costs.op in
  let sched = Dpipe.schedule arch ~load ~matrix g in
  let extents = Layer_costs.tile_extents w ~m0 in
  Ir_lint.lint ~extents cascade @ Sched_lint.verify ~name g sched

let strategy_result ?(attention = Strategies.Self) ?include_ffn (arch : Tf_arch.Arch.t)
    (w : Workload.t) (r : Strategies.result) =
  let kv_len =
    match attention with
    | Strategies.Cross { kv_len } | Strategies.Decode { kv_len } -> kv_len
    | Strategies.Self | Strategies.Causal_self -> w.seq_len
  in
  let decode = match attention with Strategies.Decode _ -> true | _ -> false in
  let tiling_diags =
    match r.Strategies.tiling with
    | None -> []
    | Some config ->
        let name =
          Printf.sprintf "tiling(%s/%s/%d/%s)" arch.Tf_arch.Arch.name w.model.Model.name w.seq_len
            (attention_tag attention)
        in
        Tiling_lint.verify ~name ~kv_len ~decode arch w config
  in
  let sched_diags =
    match r.Strategies.strategy with
    | Strategies.Transfusion -> pipeline ~attention ?include_ffn arch w
    | Strategies.Unfused | Strategies.Flat | Strategies.Fusemax | Strategies.Fusemax_layerfuse ->
        []
  in
  tiling_diags @ sched_diags

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

let certify_range ?attention ?batch ?seq ?policy ?tiling arch model ~lo ~hi ?step () =
  let step = Option.value step ~default:lo in
  Range_cert.certify ?attention ?batch ?seq ?policy ?tiling arch model { Range_cert.lo; hi; step }
