open Tf_arch

type phase_result = {
  phase : Phase.t;
  compute_s : float;
  memory_s : float;
  total_s : float;
  bound : [ `Compute | `Memory ];
}

type t = {
  phases : phase_result list;
  total_s : float;
  util_2d : float;
  util_1d : float;
}

let m_evaluations =
  Tf_obs.Counter.create ~help:"Latency.evaluate calls (full latency-model runs)"
    "costmodel.latency_evaluations_total"

(* The two scalar halves of a phase cost, split out so hot-path callers
   (Strategies' candidate scorer) can evaluate one side incrementally —
   compute time is execution-only and memory time is traffic-only, so a
   move that changes just the traffic re-derives just [memory_seconds].
   [evaluate] composes the same functions, keeping both paths
   bit-identical by construction. *)
let compute_seconds arch (execution : Phase.execution) =
  Arch.cycles_to_seconds arch execution.makespan_cycles

let memory_seconds (arch : Arch.t) traffic =
  Arch.bytes_to_seconds arch (Traffic.dram_bytes ~element_bytes:arch.element_bytes traffic)

(* A comparison, not [Float.max]: every TileSeek candidate is scored
   through here, and on OCaml 5 [Float.max] is a [caml_signbit] C call.
   Both halves are finite, non-negative seconds (a finite schedule at a
   positive clock, finite bytes at a positive bandwidth), where the two
   agree bit for bit. *)
let phase_seconds ~compute_s ~memory_s = if memory_s > compute_s then memory_s else compute_s

let phase_result arch (phase : Phase.t) =
  let compute_s = compute_seconds arch phase.execution in
  let memory_s = memory_seconds arch phase.traffic in
  let total_s = phase_seconds ~compute_s ~memory_s in
  let bound = if compute_s >= memory_s then `Compute else `Memory in
  { phase; compute_s; memory_s; total_s; bound }

let evaluate arch phases =
  if phases = [] then invalid_arg "Latency.evaluate: no phases";
  Tf_obs.Counter.incr m_evaluations;
  let results = List.map (phase_result arch) phases in
  let total_s = List.fold_left (fun acc (r : phase_result) -> acc +. r.total_s) 0. results in
  let total_cycles = total_s *. arch.clock_hz in
  let useful_2d =
    List.fold_left (fun acc (r : phase_result) -> acc +. r.phase.execution.useful_2d_slots) 0. results
  in
  let useful_1d =
    List.fold_left (fun acc (r : phase_result) -> acc +. r.phase.execution.useful_1d_slots) 0. results
  in
  let peak_2d = float_of_int (Pe_array.num_pes arch.pe_2d) in
  let peak_1d = float_of_int (Pe_array.num_pes arch.pe_1d) in
  {
    phases = results;
    total_s;
    util_2d = (if total_cycles > 0. then useful_2d /. (peak_2d *. total_cycles) else 0.);
    util_1d = (if total_cycles > 0. then useful_1d /. (peak_1d *. total_cycles) else 0.);
  }

let buckets = [ Phase.Qkv; Phase.Mha; Phase.Layernorm; Phase.Ffn ]

let per_kind_seconds t =
  let acc = Hashtbl.create 8 in
  let bump kind s = Hashtbl.replace acc kind (s +. Option.value ~default:0. (Hashtbl.find_opt acc kind)) in
  List.iter
    (fun (r : phase_result) ->
      match r.phase.parts with
      | [] -> bump r.phase.kind r.total_s
      | parts -> List.iter (fun (kind, frac) -> bump kind (frac *. r.total_s)) parts)
    t.phases;
  List.map (fun kind -> (kind, Option.value ~default:0. (Hashtbl.find_opt acc kind))) buckets

let pp ppf t =
  Fmt.pf ppf "total=%.4es util2d=%.1f%% util1d=%.1f%%@." t.total_s (100. *. t.util_2d)
    (100. *. t.util_1d);
  List.iter
    (fun r ->
      Fmt.pf ppf "  %s: %.3es (%s-bound, compute=%.3es memory=%.3es)@." r.phase.Phase.name
        r.total_s
        (match r.bound with `Compute -> "compute" | `Memory -> "memory")
        r.compute_s r.memory_s)
    t.phases
