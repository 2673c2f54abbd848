open Tf_workloads
module Strategies = Transfusion.Strategies
module Latency = Tf_costmodel.Latency

type point = {
  arch : string;
  label : string;
  per_strategy : (Strategies.t * float * float) list;
}

let utilizations arch w =
  List.map
    (fun s ->
      let r = Exp_common.evaluate arch w s in
      (s, r.Strategies.latency.Latency.util_2d, r.Strategies.latency.Latency.util_1d))
    Strategies.all

let point (arch : Tf_arch.Arch.t) label w =
  { arch = arch.Tf_arch.Arch.name; label; per_strategy = utilizations arch w }

let scaling ?(quick = false) arch model =
  let workloads =
    List.map (fun (_, seq_len) -> Workload.v model ~seq_len) (Exp_common.seq_sweep ~quick)
  in
  Exp_common.prime (Exp_common.sweep_points [ arch ] workloads);
  List.map
    (fun (label, seq_len) -> point arch label (Workload.v model ~seq_len))
    (Exp_common.seq_sweep ~quick)

let model_wise ?(seq = Exp_common.seq_64k) arch =
  let workloads = List.map (fun model -> Workload.v model ~seq_len:seq) Exp_common.models in
  Exp_common.prime (Exp_common.sweep_points [ arch ] workloads);
  List.map
    (fun (model : Model.t) -> point arch model.Model.name (Workload.v model ~seq_len:seq))
    Exp_common.models

let to_json points =
  Tf_json.(
    List
      (List.map
         (fun p ->
           Obj
             [
               ("arch", Str p.arch);
               ("label", Str p.label);
               ( "utilization",
                 Obj
                   (List.map
                      (fun (s, u2, u1) ->
                        (Strategies.name s, Obj [ ("util_2d", Num u2); ("util_1d", Num u1) ]))
                      p.per_strategy) );
             ])
         points))

let print ~title points =
  Exp_common.print_header title;
  let columns =
    List.concat_map (fun s -> [ Strategies.name s ^ ":2D"; Strategies.name s ^ ":1D" ]) Strategies.all
  in
  let rows =
    List.map
      (fun p ->
        ( Printf.sprintf "%s/%s" p.arch p.label,
          List.concat_map (fun (_, u2, u1) -> [ 100. *. u2; 100. *. u1 ]) p.per_strategy ))
      points
  in
  Exp_common.print_series_table ~row_label:"arch/workload (%)" ~columns ~rows ()
