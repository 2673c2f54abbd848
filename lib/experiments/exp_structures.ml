module Strategies = Transfusion.Strategies
module Structures = Transfusion.Structures
open Tf_workloads

type row = {
  arch : string;
  structure : string;
  strategy : Strategies.t;
  latency_s : float;
  speedup_vs_unfused : float;
}

let structures (model : Model.t) ~seq =
  [
    ("encoder", [ Structures.encoder model ]);
    ("decoder-only", [ Structures.decoder_only model ]);
    ("encoder-decoder", Structures.encoder_decoder model ~seq_len:seq);
  ]

let run ?(seq = 16384) (arch : Tf_arch.Arch.t) (model : Model.t) =
  let w = Workload.v model ~seq_len:seq in
  (* Sanitizer: the TransFusion rows below rest on a DPipe schedule per
     sublayer flavour — verify each execution they were priced with before
     reporting any number. *)
  let evaluate (s : Structures.t) strategy =
    let r = Structures.evaluate ~tileseek_iterations:60 arch w s strategy in
    List.iter
      (fun ((sub : Structures.sublayer), execution) ->
        Exp_common.require_clean
          (Printf.sprintf "structure %s sublayer schedule (%s)" s.Structures.name
             arch.Tf_arch.Arch.name)
          (Tf_analysis.Verify.execution arch sub.Structures.attention execution))
      r.Structures.executions;
    r
  in
  List.concat_map
    (fun (label, parts) ->
      let total strategy =
        Structures.total_seconds (List.map (fun s -> evaluate s strategy) parts)
      in
      let unfused = total Strategies.Unfused in
      List.map
        (fun strategy ->
          let latency_s = total strategy in
          {
            arch = arch.Tf_arch.Arch.name;
            structure = label;
            strategy;
            latency_s;
            speedup_vs_unfused = unfused /. latency_s;
          })
        Strategies.all)
    (structures model ~seq)

let print ~title rows =
  Exp_common.print_header title;
  Exp_common.print_series_table ~row_label:"arch/structure/strategy"
    ~columns:[ "latency(s)"; "speedup" ]
    ~rows:
      (List.map
         (fun r ->
           ( Printf.sprintf "%s/%s/%s" r.arch r.structure (Strategies.name r.strategy),
             [ r.latency_s; r.speedup_vs_unfused ] ))
         rows)
    ()
