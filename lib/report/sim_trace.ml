module Json = Tf_json
module Sim = Transfusion.Pipeline_sim

type instance = {
  event : Sim.event;
  label : string;
  module_name : string;
  bound : [ `Compute | `Memory ];
  buffer_elements : float;
}

let pid = 1
let tid_of = function Tf_arch.Arch.Pe_2d -> 1 | Tf_arch.Arch.Pe_1d -> 2

let bound_str = function `Compute -> "compute" | `Memory -> "memory"

let metadata ~name =
  let thread tid thread_name =
    Json.Obj
      [
        ("name", Json.Str "thread_name");
        ("ph", Json.Str "M");
        ("pid", Json.Int pid);
        ("tid", Json.Int tid);
        ("args", Json.Obj [ ("name", Json.Str thread_name) ]);
      ]
  in
  [
    Json.Obj
      [
        ("name", Json.Str "process_name");
        ("ph", Json.Str "M");
        ("pid", Json.Int pid);
        ("tid", Json.Int 0);
        ("args", Json.Obj [ ("name", Json.Str name) ]);
      ];
    thread (tid_of Tf_arch.Arch.Pe_2d) "2D PE array (sim)";
    thread (tid_of Tf_arch.Arch.Pe_1d) "1D PE array (sim)";
  ]

let slice i =
  let e = i.event in
  Json.Obj
    [
      ("name", Json.Str i.label);
      ("cat", Json.Str i.module_name);
      ("ph", Json.Str "X");
      ("pid", Json.Int pid);
      ("tid", Json.Int (tid_of e.Sim.resource));
      ("ts", Json.Num e.Sim.start_cycle);
      ("dur", Json.Num (Sim.busy e));
      ( "args",
        Json.Obj
          [
            ("node", Json.Int e.Sim.node);
            ("epoch", Json.Int e.Sim.epoch);
            ("ready_cycle", Json.Num e.Sim.ready_cycle);
            ("queue_free_cycle", Json.Num e.Sim.queue_free_cycle);
            ("dep_wait_cycles", Json.Num (Sim.dep_wait e));
            ("resource_wait_cycles", Json.Num (Sim.resource_wait e));
            ("module", Json.Str i.module_name);
            ("bound", Json.Str (bound_str i.bound));
          ] );
    ]

let counter ~name ~ts value =
  Json.Obj
    [
      ("name", Json.Str name);
      ("ph", Json.Str "C");
      ("pid", Json.Int pid);
      ("tid", Json.Int 0);
      ("ts", Json.Num ts);
      ("args", Json.Obj [ ("elements", Json.Num value) ]);
    ]

(* Buffer occupancy over virtual time: the fused stack keeps one module's
   working set resident at a time per array, so the occupancy at instant
   [t] is the largest Table 2 requirement among the instances executing at
   [t].  Sampled at every instance start/end boundary (a step function
   changes only there). *)
let occupancy_samples instances =
  let boundaries =
    List.concat_map (fun i -> [ i.event.Sim.start_cycle; i.event.Sim.end_cycle ]) instances
    |> List.sort_uniq compare
  in
  List.map
    (fun t ->
      let occ =
        List.fold_left
          (fun acc i ->
            if i.event.Sim.start_cycle <= t && t < i.event.Sim.end_cycle then
              Float.max acc i.buffer_elements
            else acc)
          0. instances
      in
      (t, occ))
    boundaries

let document ?(name = "transfusion sim") ~capacity_elements instances =
  let samples = occupancy_samples instances in
  let horizon = List.fold_left (fun acc (t, _) -> Float.max acc t) 0. samples in
  let occupancy =
    List.map (fun (t, v) -> counter ~name:"buffer_occupancy_elements" ~ts:t v) samples
  in
  let capacity =
    List.map
      (fun ts -> counter ~name:"buffer_capacity_elements" ~ts capacity_elements)
      (if horizon > 0. then [ 0.; horizon ] else [ 0. ])
  in
  Json.Obj
    [
      ("schema", Json.Str "transfusion.simtrace/1");
      ("displayTimeUnit", Json.Str "ns");
      ( "otherData",
        Json.Obj
          [
            ("clock", Json.Str "virtual cycles (1 trace us = 1 cycle)");
            ("capacity_elements", Json.Num capacity_elements);
            ("instances", Json.Int (List.length instances));
          ] );
      ("traceEvents", Json.List (metadata ~name @ List.map slice instances @ occupancy @ capacity));
    ]

(* ------------------------------------------------------------------ *)
(* Generic span/counter documents (serving timelines and friends)      *)

type span = {
  tid : int;
  span_label : string;
  cat : string;
  ts_us : float;
  dur_us : float;
  span_args : (string * Json.t) list;
}

let span_slice s =
  Json.Obj
    [
      ("name", Json.Str s.span_label);
      ("cat", Json.Str s.cat);
      ("ph", Json.Str "X");
      ("pid", Json.Int pid);
      ("tid", Json.Int s.tid);
      ("ts", Json.Num s.ts_us);
      ("dur", Json.Num s.dur_us);
      ("args", Json.Obj s.span_args);
    ]

let value_counter ~name ~ts value =
  Json.Obj
    [
      ("name", Json.Str name);
      ("ph", Json.Str "C");
      ("pid", Json.Int pid);
      ("tid", Json.Int 0);
      ("ts", Json.Num ts);
      ("args", Json.Obj [ ("value", Json.Num value) ]);
    ]

let spans_document ?(name = "transfusion sim") ?(other_data = []) ~tracks ~spans ~counters () =
  let thread (tid, thread_name) =
    Json.Obj
      [
        ("name", Json.Str "thread_name");
        ("ph", Json.Str "M");
        ("pid", Json.Int pid);
        ("tid", Json.Int tid);
        ("args", Json.Obj [ ("name", Json.Str thread_name) ]);
      ]
  in
  let process =
    Json.Obj
      [
        ("name", Json.Str "process_name");
        ("ph", Json.Str "M");
        ("pid", Json.Int pid);
        ("tid", Json.Int 0);
        ("args", Json.Obj [ ("name", Json.Str name) ]);
      ]
  in
  let counter_events =
    List.concat_map
      (fun (cname, samples) -> List.map (fun (ts, v) -> value_counter ~name:cname ~ts v) samples)
      counters
  in
  Json.Obj
    [
      ("schema", Json.Str "transfusion.simtrace/1");
      ("displayTimeUnit", Json.Str "ns");
      ( "otherData",
        Json.Obj
          (( "spans",
             Json.Int (List.length spans) )
          :: other_data) );
      ( "traceEvents",
        Json.List ((process :: List.map thread tracks) @ List.map span_slice spans @ counter_events)
      );
    ]
