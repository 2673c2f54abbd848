module Json = Tf_json
module Sim = Transfusion.Pipeline_sim
module Roofline = Tf_costmodel.Roofline

type row = {
  node : int;
  label : string;
  module_name : string;
  instances : int;
  on_2d : int;
  on_1d : int;
  busy_cycles : float;
  dep_wait_cycles : float;
  resource_wait_cycles : float;
  busy_fraction : float;
  bound : [ `Compute | `Memory ];
  intensity : float;
  machine_balance : float;
}

type t = {
  makespan_cycles : float;
  instances : int;
  busy_2d_cycles : float;
  busy_1d_cycles : float;
  util_2d : float;
  util_1d : float;
  dep_wait_cycles : float;
  resource_wait_cycles : float;
  rows : row list;
}

type acc = {
  mutable a_instances : int;
  mutable a_2d : int;
  mutable a_1d : int;
  mutable a_busy : float;
  mutable a_dep : float;
  mutable a_res : float;
}

let of_events ~outcome ~label ~module_of ~roofline events =
  let by_node : (int, acc) Hashtbl.t = Hashtbl.create 32 in
  let acc_of node =
    match Hashtbl.find_opt by_node node with
    | Some a -> a
    | None ->
        let a = { a_instances = 0; a_2d = 0; a_1d = 0; a_busy = 0.; a_dep = 0.; a_res = 0. } in
        Hashtbl.add by_node node a;
        a
  in
  List.iter
    (fun (e : Sim.event) ->
      let a = acc_of e.Sim.node in
      a.a_instances <- a.a_instances + 1;
      (match e.Sim.resource with
      | Tf_arch.Arch.Pe_2d -> a.a_2d <- a.a_2d + 1
      | Tf_arch.Arch.Pe_1d -> a.a_1d <- a.a_1d + 1);
      a.a_busy <- a.a_busy +. Sim.busy e;
      a.a_dep <- a.a_dep +. Sim.dep_wait e;
      a.a_res <- a.a_res +. Sim.resource_wait e)
    events;
  let makespan = outcome.Sim.makespan_cycles in
  let rows =
    Hashtbl.fold
      (fun node a rows ->
        let analysis = roofline node in
        {
          node;
          label = label node;
          module_name = module_of node;
          instances = a.a_instances;
          on_2d = a.a_2d;
          on_1d = a.a_1d;
          busy_cycles = a.a_busy;
          dep_wait_cycles = a.a_dep;
          resource_wait_cycles = a.a_res;
          busy_fraction = (if makespan > 0. then a.a_busy /. makespan else 0.);
          bound = analysis.Roofline.bound;
          intensity = analysis.Roofline.intensity;
          machine_balance = analysis.Roofline.machine_balance;
        }
        :: rows)
      by_node []
    |> List.sort (fun a b ->
           match compare b.busy_cycles a.busy_cycles with 0 -> compare a.node b.node | c -> c)
  in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0. rows in
  {
    makespan_cycles = makespan;
    instances = outcome.Sim.instances;
    busy_2d_cycles = outcome.Sim.busy_2d_cycles;
    busy_1d_cycles = outcome.Sim.busy_1d_cycles;
    util_2d = (if makespan > 0. then outcome.Sim.busy_2d_cycles /. makespan else 0.);
    util_1d = (if makespan > 0. then outcome.Sim.busy_1d_cycles /. makespan else 0.);
    dep_wait_cycles = sum (fun r -> r.dep_wait_cycles);
    resource_wait_cycles = sum (fun r -> r.resource_wait_cycles);
    rows;
  }

let bound_str = function `Compute -> "compute" | `Memory -> "memory"

let render t =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "simulated pipeline: makespan %.4e cycles, %d instances\n" t.makespan_cycles t.instances;
  pf "array busy: 2D %.4e cycles (%.1f%%), 1D %.4e cycles (%.1f%%)\n" t.busy_2d_cycles
    (100. *. t.util_2d) t.busy_1d_cycles (100. *. t.util_1d);
  pf "stalls: dependency-wait %.4e cycles, resource-wait %.4e cycles\n" t.dep_wait_cycles
    t.resource_wait_cycles;
  pf "%-6s %-14s %5s %7s %12s %12s %12s %6s %-7s %12s\n" "op" "module" "inst" "2D/1D"
    "busy(cyc)" "dep-wait" "res-wait" "busy%" "bound" "intensity";
  List.iter
    (fun r ->
      pf "%-6s %-14s %5d %3d/%-3d %12.4e %12.4e %12.4e %5.1f%% %-7s %12.4e\n" r.label
        r.module_name r.instances r.on_2d r.on_1d r.busy_cycles r.dep_wait_cycles
        r.resource_wait_cycles
        (100. *. r.busy_fraction)
        (bound_str r.bound) r.intensity)
    t.rows;
  Buffer.contents buf

let row_to_json r =
  Json.Obj
    [
      ("node", Json.Int r.node);
      ("op", Json.Str r.label);
      ("module", Json.Str r.module_name);
      ("instances", Json.Int r.instances);
      ("on_2d", Json.Int r.on_2d);
      ("on_1d", Json.Int r.on_1d);
      ("busy_cycles", Json.Num r.busy_cycles);
      ("dep_wait_cycles", Json.Num r.dep_wait_cycles);
      ("resource_wait_cycles", Json.Num r.resource_wait_cycles);
      ("busy_fraction", Json.Num r.busy_fraction);
      ("bound", Json.Str (bound_str r.bound));
      ("intensity", Json.Num r.intensity);
      ("machine_balance", Json.Num r.machine_balance);
    ]

let to_json t =
  Json.Obj
    [
      ("makespan_cycles", Json.Num t.makespan_cycles);
      ("instances", Json.Int t.instances);
      ("busy_2d_cycles", Json.Num t.busy_2d_cycles);
      ("busy_1d_cycles", Json.Num t.busy_1d_cycles);
      ("util_2d", Json.Num t.util_2d);
      ("util_1d", Json.Num t.util_1d);
      ("dep_wait_cycles", Json.Num t.dep_wait_cycles);
      ("resource_wait_cycles", Json.Num t.resource_wait_cycles);
      ("ops", Json.List (List.map row_to_json t.rows));
    ]
