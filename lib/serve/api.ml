module Json = Tf_json
module Strategies = Transfusion.Strategies
module Latency = Tf_costmodel.Latency
module Energy = Tf_costmodel.Energy
module Traffic = Tf_costmodel.Traffic

let eval_schema = "transfusion.eval/1"

let result_json (r : Strategies.result) =
  let lat = r.Strategies.latency in
  let e = r.Strategies.energy in
  let t = r.Strategies.traffic in
  let w = r.Strategies.workload in
  Json.Obj
    [
      ("schema", Json.Str eval_schema);
      ("arch", Json.Str r.Strategies.arch.Tf_arch.Arch.name);
      ("model", Json.Str w.Tf_workloads.Workload.model.Tf_workloads.Model.name);
      ("seq_len", Json.Int w.Tf_workloads.Workload.seq_len);
      ("batch", Json.Int w.Tf_workloads.Workload.batch);
      ("strategy", Json.Str (Strategies.name r.Strategies.strategy));
      ( "latency",
        Json.Obj
          [
            ("total_s", Json.Num lat.Latency.total_s);
            ("util_2d", Json.Num lat.Latency.util_2d);
            ("util_1d", Json.Num lat.Latency.util_1d);
            ("phases", Json.Int (List.length lat.Latency.phases));
          ] );
      ( "energy",
        Json.Obj
          [
            ("dram_pj", Json.Num e.Energy.dram_pj);
            ("buffer_pj", Json.Num e.Energy.buffer_pj);
            ("regfile_pj", Json.Num e.Energy.regfile_pj);
            ("compute_pj", Json.Num e.Energy.compute_pj);
            ("total_pj", Json.Num (Energy.total_pj e));
          ] );
      ( "traffic",
        Json.Obj
          [
            ("dram_reads", Json.Num t.Traffic.dram_reads);
            ("dram_writes", Json.Num t.Traffic.dram_writes);
            ("buffer_reads", Json.Num t.Traffic.buffer_reads);
            ("buffer_writes", Json.Num t.Traffic.buffer_writes);
            ("regfile_accesses", Json.Num t.Traffic.regfile_accesses);
            ("macs", Json.Num t.Traffic.macs);
            ("vector_ops", Json.Num t.Traffic.vector_ops);
          ] );
      ( "tiling",
        Option.fold ~none:Json.Null ~some:Tf_report.Explain.tiling_json r.Strategies.tiling );
    ]

let eval_doc ~iterations arch w strategy =
  result_json (Tf_experiments.Exp_common.evaluate ~tileseek_iterations:iterations arch w strategy)

let schedule (r : Request.Schedule.t) =
  Tf_experiments.Exp_common.evaluate_execution ~tileseek_iterations:r.iterations r.arch
    (Request.Schedule.workload r) r.strategy

let explain (r : Request.Explain.t) =
  let attention = if r.causal then Strategies.Causal_self else Strategies.Self in
  Tf_report.Explain.run ~iterations:r.iterations ~seed:r.seed ~attention r.arch
    (Request.Explain.workload r)

let decode (r : Request.Decode.t) =
  let strategies =
    match r.strategies with [] -> Tf_experiments.Exp_generation.default_strategies | ss -> ss
  in
  Tf_experiments.Exp_generation.sweep ~quick:r.quick ~gen:r.gen ~batch:r.batch ~strategies
    ~tileseek_iterations:r.iterations [ r.arch ] r.models

(* Costs the interpolation lerps between: the scalar summary of a cached
   bucket payload.  Read back through [Json.parse] — the float went
   through [%.12g] on the way out, so both buckets lose the same
   (negligible) precision and the lerp stays deterministic. *)
let payload_costs line =
  let doc = Json.parse line in
  let field outer inner =
    Json.(get_float (member inner (member outer doc)))
  in
  (field "latency" "total_s", field "energy" "total_pj")
