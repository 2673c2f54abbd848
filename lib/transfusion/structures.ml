open Tf_costmodel
open Tf_workloads

type sublayer = { attention : Strategies.attention; include_ffn : bool }

type t = { name : string; sublayers : sublayer list; layers : int }

let encoder (m : Model.t) =
  {
    name = m.Model.name ^ "-encoder";
    sublayers = [ { attention = Strategies.Self; include_ffn = true } ];
    layers = m.Model.layers;
  }

let decoder ~encoder_len (m : Model.t) =
  {
    name = m.Model.name ^ "-decoder";
    sublayers =
      [
        { attention = Strategies.Causal_self; include_ffn = false };
        { attention = Strategies.Cross { kv_len = encoder_len }; include_ffn = true };
      ];
    layers = m.Model.layers;
  }

let decoder_only ?layers (m : Model.t) =
  {
    name = m.Model.name ^ "-decoder-only";
    sublayers = [ { attention = Strategies.Causal_self; include_ffn = true } ];
    layers = Option.value layers ~default:m.Model.layers;
  }

let encoder_decoder (m : Model.t) ~seq_len = [ encoder m; decoder ~encoder_len:seq_len m ]

type result = {
  structure : t;
  strategy : Strategies.t;
  latency : Latency.t;
  energy : Energy.breakdown;
  traffic : Traffic.t;
  executions : (sublayer * Strategies.execution) list;
}

let evaluate ?tileseek_iterations arch w structure strategy =
  let priced =
    List.map
      (fun sub ->
        let phases, _, execution =
          Strategies.phases ?tileseek_iterations ~attention:sub.attention
            ~include_ffn:sub.include_ffn ~layers:structure.layers arch w strategy
        in
        (phases, Option.map (fun e -> (sub, e)) execution))
      structure.sublayers
  in
  let phase_list = List.concat_map fst priced in
  let latency = Latency.evaluate arch phase_list in
  let traffic = Traffic.sum (List.map (fun (p : Phase.t) -> p.Phase.traffic) phase_list) in
  let executions = List.filter_map snd priced in
  { structure; strategy; latency; energy = Energy.of_traffic arch traffic; traffic; executions }

let total_seconds results =
  List.fold_left (fun acc r -> acc +. r.latency.Latency.total_s) 0. results

