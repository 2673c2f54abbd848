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

(* Trace-event builders shared by the cycle-clock document and the span
   documents. *)

let metadata_event ~name ~tid label =
  Json.Obj
    [
      ("name", Json.Str name);
      ("ph", Json.Str "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.Str label) ]);
    ]

let process_event name = metadata_event ~name:"process_name" ~tid:0 name
let thread_event (tid, name) = metadata_event ~name:"thread_name" ~tid name

let slice_event ~name ~cat ~tid ~ts ~dur args =
  Json.Obj
    [
      ("name", Json.Str name);
      ("cat", Json.Str cat);
      ("ph", Json.Str "X");
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("ts", Json.Num ts);
      ("dur", Json.Num dur);
      ("args", Json.Obj args);
    ]

(* [key] names the sample's value in the event args. *)
let counter_event ~key ~name ~ts value =
  Json.Obj
    [
      ("name", Json.Str name);
      ("ph", Json.Str "C");
      ("pid", Json.Int pid);
      ("tid", Json.Int 0);
      ("ts", Json.Num ts);
      ("args", Json.Obj [ (key, Json.Num value) ]);
    ]

let trace_document ~other_data events =
  Json.Obj
    [
      ("schema", Json.Str "transfusion.simtrace/1");
      ("displayTimeUnit", Json.Str "ns");
      ("otherData", Json.Obj other_data);
      ("traceEvents", Json.List events);
    ]

let slice i =
  let e = i.event in
  slice_event ~name:i.label ~cat:i.module_name ~tid:(tid_of e.Sim.resource) ~ts:e.Sim.start_cycle
    ~dur:(Sim.busy e)
    [
      ("node", Json.Int e.Sim.node);
      ("epoch", Json.Int e.Sim.epoch);
      ("ready_cycle", Json.Num e.Sim.ready_cycle);
      ("queue_free_cycle", Json.Num e.Sim.queue_free_cycle);
      ("dep_wait_cycles", Json.Num (Sim.dep_wait e));
      ("resource_wait_cycles", Json.Num (Sim.resource_wait e));
      ("module", Json.Str i.module_name);
      ("bound", Json.Str (bound_str i.bound));
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
  let counter = counter_event ~key:"elements" in
  let occupancy =
    List.map (fun (t, v) -> counter ~name:"buffer_occupancy_elements" ~ts:t v) samples
  in
  let capacity =
    List.map
      (fun ts -> counter ~name:"buffer_capacity_elements" ~ts capacity_elements)
      (if horizon > 0. then [ 0.; horizon ] else [ 0. ])
  in
  let tracks =
    [
      (tid_of Tf_arch.Arch.Pe_2d, "2D PE array (sim)");
      (tid_of Tf_arch.Arch.Pe_1d, "1D PE array (sim)");
    ]
  in
  trace_document
    ~other_data:
      [
        ("clock", Json.Str "virtual cycles (1 trace us = 1 cycle)");
        ("capacity_elements", Json.Num capacity_elements);
        ("instances", Json.Int (List.length instances));
      ]
    ((process_event name :: List.map thread_event tracks)
    @ List.map slice instances @ occupancy @ capacity)

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

let spans_document ?(name = "transfusion sim") ?(other_data = []) ~tracks ~spans ~counters () =
  let span_slice s =
    slice_event ~name:s.span_label ~cat:s.cat ~tid:s.tid ~ts:s.ts_us ~dur:s.dur_us s.span_args
  in
  let counter_events =
    List.concat_map
      (fun (cname, samples) ->
        List.map (fun (ts, v) -> counter_event ~key:"value" ~name:cname ~ts v) samples)
      counters
  in
  trace_document
    ~other_data:(("spans", Json.Int (List.length spans)) :: other_data)
    ((process_event name :: List.map thread_event tracks)
    @ List.map span_slice spans @ counter_events)
