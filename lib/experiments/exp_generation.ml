open Tf_workloads
module Strategies = Transfusion.Strategies
module Decode = Transfusion.Decode
module Energy = Tf_costmodel.Energy

type point = { arch : string; metrics : Decode.metrics; executions : Decode.executions }

let default_strategies = [ Strategies.Fusemax; Strategies.Transfusion ]

(* Decode results bypass the Exp_common summary cache (its key has no
   generation fields), so every fresh metrics record is verified here
   the way Exp_common.evaluate verifies encoder results: the prefill and
   both decode endpoints, each with the execution it was priced with. *)
let verify (m : Decode.metrics) (e : Decode.executions) =
  let spec = m.Decode.spec in
  let check stage result execution =
    Exp_common.require_clean
      (Printf.sprintf "generation %s (%s, %s)" stage (Strategies.name m.Decode.strategy)
         (Generation.label spec))
      (Tf_analysis.Verify.strategy_result (result, execution))
  in
  check "prefill" m.Decode.prefill e.Decode.prefill_exec;
  check "decode@first" m.Decode.first e.Decode.first_exec;
  check "decode@last" m.Decode.last e.Decode.last_exec

let point ?tileseek_iterations (arch : Tf_arch.Arch.t) spec strategy =
  let metrics, executions = Decode.evaluate ?tileseek_iterations arch spec strategy in
  verify metrics executions;
  { arch = arch.Tf_arch.Arch.name; metrics; executions }

let prompts ~quick = Exp_common.seq_sweep ~quick

let sweep ?(quick = false) ?gen ?batch ?(strategies = default_strategies) ?tileseek_iterations
    archs models =
  let specs =
    List.concat_map
      (fun model ->
        List.map (fun (_, prompt) -> Generation.v ?batch ?gen model ~prompt) (prompts ~quick))
      models
  in
  let grid =
    List.concat_map
      (fun arch -> List.concat_map (fun spec -> List.map (fun s -> (arch, spec, s)) strategies) specs)
      archs
  in
  Exp_common.par_map (fun (arch, spec, s) -> point ?tileseek_iterations arch spec s) grid

let json_of_point p =
  let m = p.metrics in
  let spec = m.Decode.spec in
  Tf_json.(
    Obj
      [
        ("arch", Str p.arch);
        ("model", Str spec.Generation.model.Model.name);
        ("strategy", Str (Strategies.name m.Decode.strategy));
        ("prompt", Int spec.Generation.prompt);
        ("gen", Int spec.Generation.gen);
        ("batch", Int spec.Generation.batch);
        ("ttft_s", Num m.Decode.ttft_s);
        ("token_s_first", Num m.Decode.token_s_first);
        ("token_s_last", Num m.Decode.token_s_last);
        ("decode_s", Num m.Decode.decode_s);
        ("total_s", Num m.Decode.total_s);
        ("tokens_per_s", Num m.Decode.tokens_per_s);
        ("energy_per_token_pj", Num m.Decode.energy_per_token_pj);
        ("decode_energy_pj", Num (Energy.total_pj m.Decode.decode_energy));
        ("total_energy_pj", Num m.Decode.total_energy_pj);
        ( "decode_tiling",
          Option.fold ~none:Null ~some:Tf_report.Explain.tiling_json m.Decode.decode_tiling );
      ])

let schema = "transfusion.generation/1"

let to_json points =
  Tf_json.(Obj [ ("schema", Str schema); ("points", List (List.map json_of_point points)) ])

let print ~title points =
  Exp_common.print_header title;
  let columns = [ "ttft(ms)"; "tok0(ms)"; "tokN(ms)"; "tok/s"; "uJ/tok"; "total(s)" ] in
  let rows =
    List.map
      (fun p ->
        let m = p.metrics in
        ( Printf.sprintf "%s/%s/%s/%s" p.arch m.Decode.spec.Generation.model.Model.name
            (Strategies.name m.Decode.strategy)
            (Generation.label m.Decode.spec),
          [
            1e3 *. m.Decode.ttft_s;
            1e3 *. m.Decode.token_s_first;
            1e3 *. m.Decode.token_s_last;
            m.Decode.tokens_per_s;
            m.Decode.energy_per_token_pj /. 1e6;
            m.Decode.total_s;
          ] ))
      points
  in
  Exp_common.print_series_table ~row_label:"arch/model/strategy/gen" ~columns ~rows ()
