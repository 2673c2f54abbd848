open Tf_workloads
module Strategies = Transfusion.Strategies

type point = { arch : string; label : string; energy : (Strategies.t * float) list }

let scaling ?(quick = false) archs model =
  let workloads =
    List.map (fun (_, seq_len) -> Workload.v model ~seq_len) (Exp_common.seq_sweep ~quick)
  in
  Exp_common.prime (Exp_common.sweep_points archs workloads);
  List.concat_map
    (fun (arch : Tf_arch.Arch.t) ->
      List.map
        (fun (label, seq_len) ->
          let w = Workload.v model ~seq_len in
          { arch = arch.Tf_arch.Arch.name; label; energy = Exp_common.energy_over_unfused arch w })
        (Exp_common.seq_sweep ~quick))
    archs

let model_wise ?(seq = Exp_common.seq_64k) (arch : Tf_arch.Arch.t) =
  Exp_common.prime
    (Exp_common.sweep_points [ arch ]
       (List.map (fun model -> Workload.v model ~seq_len:seq) Exp_common.models));
  List.map
    (fun (model : Model.t) ->
      let w = Workload.v model ~seq_len:seq in
      {
        arch = arch.Tf_arch.Arch.name;
        label = model.Model.name;
        energy = Exp_common.energy_over_unfused arch w;
      })
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
               ("energy", Obj (List.map (fun (s, v) -> (Strategies.name s, Num v)) p.energy));
             ])
         points))

let print ~title points =
  Exp_common.print_header title;
  let columns = List.map Strategies.name Strategies.all in
  let rows =
    List.map (fun p -> (Printf.sprintf "%s/%s" p.arch p.label, List.map snd p.energy)) points
  in
  Exp_common.print_series_table ~row_label:"arch/workload" ~columns ~rows ()
