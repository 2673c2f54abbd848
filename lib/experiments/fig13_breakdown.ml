open Tf_workloads
module Strategies = Transfusion.Strategies
module Energy = Tf_costmodel.Energy

type point = {
  arch : string;
  label : string;
  strategy : Strategies.t;
  fractions : (string * float) list;
  total_pj : float;
}

let strategies = [ Strategies.Transfusion; Strategies.Fusemax ]

let scaling ?(quick = false) archs model =
  let workloads =
    List.map (fun (_, seq_len) -> Workload.v model ~seq_len) (Exp_common.seq_sweep ~quick)
  in
  Exp_common.prime (Exp_common.sweep_points ~strategies archs workloads);
  List.concat_map
    (fun (arch : Tf_arch.Arch.t) ->
      List.concat_map
        (fun (label, seq_len) ->
          let w = Workload.v model ~seq_len in
          List.map
            (fun strategy ->
              let r = Exp_common.evaluate arch w strategy in
              {
                arch = arch.Tf_arch.Arch.name;
                label;
                strategy;
                fractions = Energy.fractions r.Strategies.energy;
                total_pj = Energy.total_pj r.Strategies.energy;
              })
            strategies)
        (Exp_common.seq_sweep ~quick))
    archs

let to_json points =
  Tf_json.(
    List
      (List.map
         (fun p ->
           Obj
             [
               ("arch", Str p.arch);
               ("label", Str p.label);
               ("strategy", Str (Strategies.name p.strategy));
               ("fractions", Obj (List.map (fun (k, v) -> (k, Num v)) p.fractions));
               ("total_pj", Num p.total_pj);
             ])
         points))

let print ~title points =
  Exp_common.print_header title;
  let columns = [ "DRAM%"; "GlobalBuf%"; "RegFile%"; "PE%"; "total(J)" ] in
  let rows =
    List.map
      (fun p ->
        ( Printf.sprintf "%s/%s/%s" p.arch p.label (Strategies.name p.strategy),
          List.map (fun (_, f) -> 100. *. f) p.fractions @ [ p.total_pj /. 1e12 ] ))
      points
  in
  Exp_common.print_series_table ~row_label:"arch/seq/strategy" ~columns ~rows ()
