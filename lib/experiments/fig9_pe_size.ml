type point = Fig8_speedup.point = {
  arch : string;
  label : string;
  speedups : (Transfusion.Strategies.t * float) list;
}

let variants = [ Tf_arch.Presets.edge_32; Tf_arch.Presets.edge_64 ]

let scaling ?quick model = Fig8_speedup.scaling ?quick variants model

let model_wise () = List.concat_map (fun arch -> Fig8_speedup.model_wise arch) variants

let to_json = Fig8_speedup.to_json
let print = Fig8_speedup.print
