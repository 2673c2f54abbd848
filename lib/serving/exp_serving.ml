module Exp_common = Tf_experiments.Exp_common
module Json = Tf_json

type point = { load : string; rate_qps : float; report : Simulator.report }

let service_rate ~costs ~classes ~capacity =
  let weight = List.fold_left (fun acc (c : Traffic.cls) -> acc +. c.Traffic.weight) 0. classes in
  let mean_latency =
    List.fold_left
      (fun acc (c : Traffic.cls) ->
        let pr = Costs.costs costs ~cls:c in
        acc +. (c.Traffic.weight *. (pr.Costs.ttft_s +. pr.Costs.decode_s)))
      0. classes
    /. weight
  in
  float_of_int capacity /. mean_latency

(* 20% of the optimistic bound leaves the queue near-empty; 70% forces
   sustained queueing without drowning every policy equally. *)
let loads = [ ("low", 0.2); ("high", 0.7) ]

let sweep ?(seed = 42) ?(n = 120) ?(capacity = 16) ?(classes = Traffic.default_classes)
    ?(process = Traffic.Bursty { mean_burst = 8; boost = 8. }) ~costs () =
  (* Prime the shape memo sequentially so the parallel policy runs below
     are pure cache hits — and so the run order cannot matter. *)
  List.iter (fun c -> ignore (Costs.costs costs ~cls:c)) classes;
  let mu = service_rate ~costs ~classes ~capacity in
  let grid =
    List.concat_map
      (fun (load, frac) ->
        let rate_qps = frac *. mu in
        let trace = Traffic.generate ~classes ~seed ~rate_qps ~n process in
        List.map (fun policy -> (load, rate_qps, policy, trace)) Policy.all)
      loads
  in
  Exp_common.par_map
    (fun (load, rate_qps, policy, trace) ->
      { load; rate_qps; report = Simulator.run ~capacity ~costs ~policy trace })
    grid

let schema = "transfusion.serving/1"

let to_json ~costs points =
  let point_json p =
    match Simulator.to_json ~per_request:false ~costs p.report with
    | Json.Obj fields -> Json.Obj (("load", Json.Str p.load) :: fields)
    | other -> other
  in
  Json.Obj [ ("schema", Json.Str schema); ("points", Json.List (List.map point_json points)) ]

let print ~title points =
  Exp_common.print_header title;
  let columns =
    [ "ttft p50(ms)"; "ttft p95(ms)"; "tpot p95(ms)"; "util"; "batch"; "preempt"; "unfin" ]
  in
  let rows =
    List.map
      (fun p ->
        let r = p.report in
        ( Printf.sprintf "%s/%s@%.2fqps" r.Simulator.policy p.load p.rate_qps,
          [
            1e3 *. r.Simulator.ttft.Simulator.p50;
            1e3 *. r.Simulator.ttft.Simulator.p95;
            1e3 *. r.Simulator.tpot.Simulator.p95;
            r.Simulator.pe_utilization;
            r.Simulator.mean_batch;
            float_of_int r.Simulator.preemptions;
            float_of_int (List.length r.Simulator.unfinished);
          ] ))
      points
  in
  Exp_common.print_series_table ~row_label:"policy/load" ~columns ~rows ()
