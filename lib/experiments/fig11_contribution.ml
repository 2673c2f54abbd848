open Tf_workloads
module Strategies = Transfusion.Strategies
module Speedup = Transfusion.Speedup

type point = { arch : string; label : string; entries : Speedup.entry list }

let scaling ?(quick = false) archs model =
  let workloads =
    List.map (fun (_, seq_len) -> Workload.v model ~seq_len) (Exp_common.seq_sweep ~quick)
  in
  Exp_common.prime
    (Exp_common.sweep_points
       ~strategies:[ Strategies.Fusemax; Strategies.Transfusion ]
       archs workloads);
  List.concat_map
    (fun (arch : Tf_arch.Arch.t) ->
      List.map
        (fun (label, seq_len) ->
          let w = Workload.v model ~seq_len in
          let baseline = (Exp_common.evaluate arch w Strategies.Fusemax).Strategies.latency in
          let optimized = (Exp_common.evaluate arch w Strategies.Transfusion).Strategies.latency in
          { arch = arch.Tf_arch.Arch.name; label; entries = Speedup.attribute ~baseline ~optimized })
        (Exp_common.seq_sweep ~quick))
    archs

let kind_name = function
  | Tf_costmodel.Phase.Qkv -> "qkv"
  | Tf_costmodel.Phase.Mha -> "mha"
  | Tf_costmodel.Phase.Layernorm -> "layernorm"
  | Tf_costmodel.Phase.Ffn -> "ffn"
  | Tf_costmodel.Phase.Fused_stack -> "fused_stack"

let to_json points =
  Tf_json.(
    List
      (List.map
         (fun p ->
           Obj
             [
               ("arch", Str p.arch);
               ("label", Str p.label);
               ( "entries",
                 Obj
                   (List.map
                      (fun (e : Speedup.entry) ->
                        ( kind_name e.Speedup.kind,
                          Obj
                            [
                              ("speedup", Num e.Speedup.speedup);
                              ("contribution", Num e.Speedup.contribution);
                            ] ))
                      p.entries) );
             ])
         points))

let print ~title points =
  Exp_common.print_header title;
  let columns =
    List.concat_map
      (fun k -> [ k ^ ":spd"; k ^ ":ctb%" ])
      [ "QKV"; "MHA"; "LNorm"; "FFN" ]
  in
  let rows =
    List.map
      (fun p ->
        ( Printf.sprintf "%s/%s" p.arch p.label,
          List.concat_map
            (fun (e : Speedup.entry) -> [ e.Speedup.speedup; 100. *. e.Speedup.contribution ])
            p.entries ))
      points
  in
  Exp_common.print_series_table ~row_label:"arch/seq" ~columns ~rows ()
