open Tf_workloads
module Strategies = Transfusion.Strategies

type summary = {
  arch : string;
  vs_layerfuse : float;
  vs_fusemax : float;
  vs_flat : float;
  vs_unfused : float;
}

let ratios ?(quick = false) ?(model = Presets.llama3) arch baseline =
  let workloads =
    List.map (fun (_, seq_len) -> Workload.v model ~seq_len) (Exp_common.seq_sweep ~quick)
  in
  Exp_common.prime
    (Exp_common.sweep_points ~strategies:[ baseline; Strategies.Transfusion ] [ arch ] workloads);
  List.map
    (fun (_, seq_len) ->
      let w = Workload.v model ~seq_len in
      let base = Exp_common.evaluate arch w baseline in
      Strategies.speedup ~baseline:base (Exp_common.evaluate arch w Strategies.Transfusion))
    (Exp_common.seq_sweep ~quick)

let compute ?quick ?model (arch : Tf_arch.Arch.t) =
  let geo baseline = Exp_common.geomean (ratios ?quick ?model arch baseline) in
  {
    arch = arch.Tf_arch.Arch.name;
    vs_layerfuse = geo Strategies.Fusemax_layerfuse;
    vs_fusemax = geo Strategies.Fusemax;
    vs_flat = geo Strategies.Flat;
    vs_unfused = geo Strategies.Unfused;
  }

let ordering_holds ?quick ?model arch =
  List.for_all
    (fun baseline -> List.for_all (fun r -> r >= 0.99) (ratios ?quick ?model arch baseline))
    [ Strategies.Unfused; Strategies.Flat; Strategies.Fusemax; Strategies.Fusemax_layerfuse ]

let to_json s =
  Tf_json.(
    Obj
      [
        ("arch", Str s.arch);
        ("vs_layerfuse", Num s.vs_layerfuse);
        ("vs_fusemax", Num s.vs_fusemax);
        ("vs_flat", Num s.vs_flat);
        ("vs_unfused", Num s.vs_unfused);
      ])

let print s =
  Printf.printf
    "%s: TransFusion geomean speedup: %.2fx vs FuseMax+LayerFuse, %.2fx vs FuseMax, %.2fx vs FLAT, %.2fx vs Unfused\n"
    s.arch s.vs_layerfuse s.vs_fusemax s.vs_flat s.vs_unfused
