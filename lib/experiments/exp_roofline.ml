module Strategies = Transfusion.Strategies
module Roofline = Tf_costmodel.Roofline
module Phase = Tf_costmodel.Phase
open Tf_workloads

type row = {
  arch : string;
  seq : string;
  module_name : string;
  intensity : float;
  bound : [ `Compute | `Memory ];
  attainable : float;
}

let rows_of (arch : Tf_arch.Arch.t) seq_label phases =
  List.map
    (fun (p : Phase.t) ->
      let a = Roofline.of_phase arch p in
      {
        arch = arch.Tf_arch.Arch.name;
        seq = seq_label;
        module_name = p.Phase.name;
        intensity = a.Roofline.intensity;
        bound = a.Roofline.bound;
        attainable = a.Roofline.attainable_fraction;
      })
    phases

let run ?(quick = false) archs model =
  Exp_common.par_concat_map
    (fun (arch : Tf_arch.Arch.t) ->
      List.concat_map
        (fun (label, seq_len) ->
          let w = Workload.v model ~seq_len in
          let unfused, _, _ = Strategies.phases ~tileseek_iterations:60 arch w Strategies.Unfused in
          let fused, tiling, execution =
            Strategies.phases ~tileseek_iterations:60 arch w Strategies.Transfusion
          in
          (match tiling with
          | Some config ->
              Exp_common.require_clean
                (Printf.sprintf "roofline tiling (%s)" arch.Tf_arch.Arch.name)
                (Tf_analysis.Tiling_lint.verify arch w config)
          | None -> ());
          Exp_common.require_clean
            (Printf.sprintf "roofline schedule (%s)" arch.Tf_arch.Arch.name)
            (Tf_analysis.Verify.execution arch Strategies.Self (Option.get execution));
          rows_of arch label (unfused @ fused))
        (Exp_common.seq_sweep ~quick))
    archs

let print ~title rows =
  Exp_common.print_header title;
  Printf.printf "%-32s %14s %10s %12s\n" "arch/seq/module" "slots/byte" "bound" "peak frac";
  List.iter
    (fun r ->
      Printf.printf "%-32s %14.2f %10s %12.3f\n"
        (Printf.sprintf "%s/%s/%s" r.arch r.seq r.module_name)
        r.intensity
        (match r.bound with `Compute -> "compute" | `Memory -> "memory")
        r.attainable)
    rows
