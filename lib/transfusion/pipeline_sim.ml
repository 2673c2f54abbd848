open Tf_arch
module Dag = Tf_dag.Dag

type outcome = {
  makespan_cycles : float;
  busy_1d_cycles : float;
  busy_2d_cycles : float;
  instances : int;
}

type event = {
  node : int;
  epoch : int;
  resource : Arch.resource;
  ready_cycle : float;
  queue_free_cycle : float;
  start_cycle : float;
  end_cycle : float;
}

(* Stall attribution (DESIGN.md "simulation telemetry"): an instance's
   span runs from the moment it could first have mattered to its PE
   array — min(ready, queue_free) — to its completion.  Exactly one of
   the two wait classes is nonzero:

   - dependency wait: the array sat free while predecessors were still
     running (ready > queue_free);
   - resource wait: the instance sat ready while the array drained
     earlier work (queue_free > ready).

   So span = dep_wait + resource_wait + busy holds exactly, not just to
   tolerance — the identity the property tests pin. *)
let dep_wait e = Float.max 0. (e.ready_cycle -. e.queue_free_cycle)
let resource_wait e = Float.max 0. (e.queue_free_cycle -. e.ready_cycle)
let busy e = e.end_cycle -. e.start_cycle
let span e = e.end_cycle -. Float.min e.ready_cycle e.queue_free_cycle

(* The discrete-event core.  [record] switches event accumulation on;
   events append in completion order, so per-resource folds over the
   event list replay the exact floating-point sequence that produced
   the busy totals (bit-identical sums). *)
let replay_core arch ~load ~matrix ~record g (sched : Dpipe.t) =
  (* Per-resource issue queues, in the schedule's start order. *)
  let by_resource r =
    List.filter (fun (a : Dpipe.assignment) -> a.Dpipe.resource = r) sched.Dpipe.assignments
    |> List.sort (fun (a : Dpipe.assignment) b ->
           compare a.Dpipe.start_cycle b.Dpipe.start_cycle)
  in
  let queues = [ (Arch.Pe_1d, ref (by_resource Arch.Pe_1d)); (Arch.Pe_2d, ref (by_resource Arch.Pe_2d)) ] in
  let free = [ (Arch.Pe_1d, ref 0.); (Arch.Pe_2d, ref 0.) ] in
  let busy = [ (Arch.Pe_1d, ref 0.); (Arch.Pe_2d, ref 0.) ] in
  let finished : (int * int, float) Hashtbl.t = Hashtbl.create 64 in
  let deps_ready (a : Dpipe.assignment) =
    List.fold_left
      (fun acc p ->
        match acc with
        | None -> None
        | Some t -> (
            match Hashtbl.find_opt finished (p, a.Dpipe.epoch) with
            | Some e -> Some (Float.max t e)
            | None -> None))
      (Some 0.)
      (Dag.preds g a.Dpipe.node)
  in
  let total = List.length sched.Dpipe.assignments in
  let completed = ref 0 in
  let makespan = ref 0. in
  let progress = ref true in
  let events = ref [] in
  while !completed < total && !progress do
    progress := false;
    List.iter
      (fun (r, queue) ->
        match !queue with
        | [] -> ()
        | head :: rest -> (
            match deps_ready head with
            | None -> () (* dependency not finished yet; try other resources *)
            | Some ready ->
                let free_at = List.assoc r free in
                let queue_free = !free_at in
                let start = Float.max queue_free ready in
                let latency = Dpipe.node_latency arch ~load ~matrix head.Dpipe.node r in
                let finish = start +. latency in
                Hashtbl.replace finished (head.Dpipe.node, head.Dpipe.epoch) finish;
                free_at := finish;
                let b = List.assoc r busy in
                b := !b +. latency;
                makespan := Float.max !makespan finish;
                if record then
                  events :=
                    {
                      node = head.Dpipe.node;
                      epoch = head.Dpipe.epoch;
                      resource = r;
                      ready_cycle = ready;
                      queue_free_cycle = queue_free;
                      start_cycle = start;
                      end_cycle = finish;
                    }
                    :: !events;
                queue := rest;
                incr completed;
                progress := true))
      queues
  done;
  if !completed < total then Error "deadlock: issue order violates dependencies"
  else
    Ok
      ( {
          makespan_cycles = !makespan;
          busy_1d_cycles = !(List.assoc Arch.Pe_1d busy);
          busy_2d_cycles = !(List.assoc Arch.Pe_2d busy);
          instances = total;
        },
        List.rev !events )

let replay arch ~load ~matrix g sched =
  Result.map fst (replay_core arch ~load ~matrix ~record:false g sched)

let replay_events arch ~load ~matrix g sched =
  replay_core arch ~load ~matrix ~record:true g sched

let agrees ?(tol = 1e-6) (sched : Dpipe.t) outcome =
  let a = sched.Dpipe.makespan_cycles and b = outcome.makespan_cycles in
  Float.abs (a -. b) <= tol *. (1. +. Float.max (Float.abs a) (Float.abs b))

let gantt ?(width = 72) ~label (sched : Dpipe.t) =
  let buffer = Stdlib.Buffer.create 1024 in
  let horizon = Float.max 1e-9 sched.Dpipe.makespan_cycles in
  let column t = int_of_float (float_of_int (width - 1) *. t /. horizon) in
  let render r =
    Stdlib.Buffer.add_string buffer
      (Printf.sprintf "%s array:\n" (Arch.resource_to_string r));
    List.iter
      (fun (a : Dpipe.assignment) ->
        if a.Dpipe.resource = r then begin
          let start = column a.Dpipe.start_cycle and stop = column a.Dpipe.end_cycle in
          let lane = Bytes.make width '.' in
          for i = start to Int.min stop (width - 1) do
            Bytes.set lane i '#'
          done;
          Stdlib.Buffer.add_string buffer
            (Printf.sprintf "  %-8s e%-2d |%s|\n"
               (label a.Dpipe.node) a.Dpipe.epoch (Bytes.to_string lane))
        end)
      sched.Dpipe.assignments
  in
  render Arch.Pe_2d;
  render Arch.Pe_1d;
  Stdlib.Buffer.contents buffer
