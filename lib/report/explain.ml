module Json = Tf_json
module Arch = Tf_arch.Arch
module Workload = Tf_workloads.Workload
module Model = Tf_workloads.Model
module Strategies = Transfusion.Strategies
module Tileseek = Transfusion.Tileseek
module Layer_costs = Transfusion.Layer_costs
module Buffer_req = Transfusion.Buffer_req
module Dpipe = Transfusion.Dpipe
module Sim = Transfusion.Pipeline_sim
module Roofline = Tf_costmodel.Roofline
module Latency = Tf_costmodel.Latency
module Phase = Tf_costmodel.Phase

type buffer_row = { module_name : string; elements : float; fraction : float }

type t = {
  arch : Arch.t;
  workload : Workload.t;
  attention : Strategies.attention;
  tiling : Tileseek.config;
  latency_s : float;
  layer : Strategies.layer_choice;
  sched : Dpipe.t;
  outcome : Sim.outcome;
  events : Sim.event list;
  rollup : Rollup.t;
  buffers : buffer_row list;
  capacity_elements : float;
  convergence : Convergence.t option;
}

(* A Table 2 module as the report names it. *)
let module_name = function
  | Phase.Layernorm -> "Add+LayerNorm"
  | kind -> Phase.layer_kind_to_string kind

(* The report of the execution a TransFusion result was priced with. *)
let of_execution (r : Strategies.result) (e : Strategies.execution) =
  let arch = r.Strategies.arch and w = r.Strategies.workload in
  let attention = r.Strategies.attention and tiling = Option.get r.Strategies.tiling in
  let { Layer_costs.load; matrix; dag = g; totals; extents; _ } =
    e.Strategies.dpipe.Strategies.problem
  in
  let op n = totals.(n).Layer_costs.op in
  let sched = Lazy.force e.Strategies.dpipe.Strategies.schedule in
  let outcome, events =
    match Sim.replay_events arch ~load ~matrix g sched with
    | Ok pair -> pair
    | Error e -> invalid_arg ("Explain.of_execution: schedule replay failed: " ^ e)
  in
  let rooflines =
    Array.init (Array.length totals) (fun n -> Roofline.of_einsum arch extents (op n))
  in
  let rollup =
    Rollup.of_events ~outcome
      ~label:(fun n -> (op n).Tf_einsum.Einsum.name)
      ~module_of:(fun n -> module_name totals.(n).Layer_costs.module_)
      ~roofline:(fun n -> rooflines.(n))
      events
  in
  let a = Strategies.attention_dims ~attention w in
  let dims = Tileseek.dims ~kv_len:a.Strategies.kv_len arch w tiling in
  let capacity_elements = float_of_int (Arch.buffer_elements arch) in
  let buffers =
    List.map
      (fun (module_name, elements) ->
        { module_name; elements; fraction = elements /. capacity_elements })
      [
        (module_name Phase.Qkv, Buffer_req.qkv dims);
        ( module_name Phase.Mha,
          if a.Strategies.decode then Buffer_req.mha_decode dims else Buffer_req.mha dims );
        (module_name Phase.Layernorm, Buffer_req.add_layernorm dims);
        (module_name Phase.Ffn, Buffer_req.ffn dims);
      ]
  in
  {
    arch;
    workload = w;
    attention;
    tiling;
    latency_s = r.Strategies.latency.Latency.total_s;
    layer = e.Strategies.layer;
    sched;
    outcome;
    events;
    rollup;
    buffers;
    capacity_elements;
    convergence = None;
  }

let run ~iterations ~seed ~attention arch (w : Workload.t) =
  let probes = ref [] in
  let probe p = probes := p :: !probes in
  let r, e, stats = Strategies.search ~iterations ~seed ~probe ~attention arch w in
  let convergence = Convergence.of_probes ~seed ~stats (List.rev !probes) in
  { (of_execution r e) with convergence = Some convergence }

(* With the static execution served, the schedule, rollup and timeline
   describe the DPipe candidate it beat. *)
let candidate t = t.layer.Strategies.served = `Static
let served_name t = if candidate t then "static" else "dpipe"

let render t =
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let w = t.workload in
  pf "explain: %s on %s, seq=%d batch=%d attention=%s\n" w.Workload.model.Model.name
    t.arch.Arch.name w.Workload.seq_len w.Workload.batch (Strategies.attention_name t.attention);
  pf "tiling: %s\n" (Fmt.str "%a" Tileseek.pp_config t.tiling);
  pf "cost-model latency: %.4e s\n" t.latency_s;
  let l = t.layer in
  pf "served: %s (per layer: DPipe %.4e cycles, static %.4e cycles)\n"
    (served_name t) l.Strategies.dpipe_cycles l.Strategies.static_cycles;
  pf "%s: %d epochs unrolled, steady interval %.4e cycles/epoch, sim %s analytic makespan\n"
    (if candidate t then "DPipe candidate (not served)" else "DPipe")
    t.sched.Dpipe.epochs_unrolled t.sched.Dpipe.steady_interval_cycles
    (if Sim.agrees t.sched t.outcome then "matches" else "DISAGREES with");
  pf "\n%s" (Rollup.render t.rollup);
  pf "\nbuffer occupancy (Table 2, %.0f elements capacity):\n" t.capacity_elements;
  List.iter
    (fun b -> pf "  %-14s %12.0f elements  %5.1f%%\n" b.module_name b.elements (100. *. b.fraction))
    t.buffers;
  (match t.convergence with
  | Some c -> pf "\n%s" (Convergence.render c)
  | None -> ());
  Buffer.contents buf

let tiling_json (c : Tileseek.config) =
  Json.Obj
    (List.map
       (fun (k, v) -> (k, Json.Int v))
       Tileseek.[ ("b", c.b); ("d", c.d); ("p", c.p); ("m1", c.m1); ("m0", c.m0); ("s", c.s) ])

let attention_json att =
  let kind, kv =
    match att with
    | Strategies.Self -> ("self", None)
    | Strategies.Causal_self -> ("causal", None)
    | Strategies.Cross { kv_len } -> ("cross", Some kv_len)
    | Strategies.Decode { kv_len } -> ("decode", Some kv_len)
  in
  Json.Obj
    [
      ("kind", Json.Str kind);
      ("kv_len", match kv with Some n -> Json.Int n | None -> Json.Null);
    ]

let schedule_json t =
  let s = t.sched in
  let stage names = Json.List (List.map (fun n -> Json.Str n) names) in
  let stage1, stage2 =
    match s.Dpipe.partition with
    | Some p ->
        let label_of =
          let by_node = Hashtbl.create 32 in
          List.iter
            (fun (r : Rollup.row) -> Hashtbl.replace by_node r.Rollup.node r.Rollup.label)
            t.rollup.Rollup.rows;
          fun i -> match Hashtbl.find_opt by_node i with Some l -> l | None -> string_of_int i
        in
        ( List.map label_of p.Tf_dag.Partition.first,
          List.map label_of p.Tf_dag.Partition.second )
    | None -> ([], [])
  in
  Json.Obj
    [
      ("served", Json.Str (served_name t));
      ("static_makespan_cycles", Json.Num t.layer.Strategies.static_cycles);
      ("epochs_unrolled", Json.Int s.Dpipe.epochs_unrolled);
      ("makespan_cycles", Json.Num s.Dpipe.makespan_cycles);
      ("steady_interval_cycles", Json.Num s.Dpipe.steady_interval_cycles);
      ("sim_makespan_cycles", Json.Num t.outcome.Sim.makespan_cycles);
      ("sim_matches_analytic", Json.Bool (Sim.agrees t.sched t.outcome));
      ("stage1", stage stage1);
      ("stage2", stage stage2);
    ]

let to_json t =
  let w = t.workload in
  Json.Obj
    [
      ("schema", Json.Str "transfusion.explain/1");
      ("arch", Json.Str t.arch.Arch.name);
      ("model", Json.Str w.Workload.model.Model.name);
      ("seq_len", Json.Int w.Workload.seq_len);
      ("batch", Json.Int w.Workload.batch);
      ("attention", attention_json t.attention);
      ("tiling", tiling_json t.tiling);
      ("latency_s", Json.Num t.latency_s);
      ("schedule", schedule_json t);
      ("rollup", Rollup.to_json t.rollup);
      ( "buffers",
        Json.Obj
          [
            ("capacity_elements", Json.Num t.capacity_elements);
            ( "modules",
              Json.List
                (List.map
                   (fun b ->
                     Json.Obj
                       [
                         ("module", Json.Str b.module_name);
                         ("elements", Json.Num b.elements);
                         ("fraction", Json.Num b.fraction);
                       ])
                   t.buffers) );
          ] );
      ( "convergence",
        match t.convergence with Some c -> Convergence.to_json c | None -> Json.Null );
    ]

let trace t =
  let by_node = Hashtbl.create 32 in
  List.iter
    (fun (r : Rollup.row) -> Hashtbl.replace by_node r.Rollup.node r)
    t.rollup.Rollup.rows;
  let requirement = Hashtbl.create 8 in
  List.iter (fun b -> Hashtbl.replace requirement b.module_name b.elements) t.buffers;
  let instances =
    List.map
      (fun (e : Sim.event) ->
        let row = Hashtbl.find by_node e.Sim.node in
        {
          Sim_trace.event = e;
          label = row.Rollup.label;
          module_name = row.Rollup.module_name;
          bound = row.Rollup.bound;
          buffer_elements =
            (match Hashtbl.find_opt requirement row.Rollup.module_name with
            | Some v -> v
            | None -> 0.);
        })
      t.events
  in
  Sim_trace.document
    ~name:
      (Printf.sprintf "transfusion sim: %s/%s%s" t.arch.Arch.name
         t.workload.Workload.model.Model.name
         (if candidate t then " (DPipe candidate, not served)" else ""))
    ~capacity_elements:t.capacity_elements instances
