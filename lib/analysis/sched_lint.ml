module Dag = Tf_dag.Dag
module Partition = Tf_dag.Partition
module Dpipe = Transfusion.Dpipe
open Tf_arch

let verify ?(name = "dpipe") g (t : Dpipe.t) =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let error ?op ?node ~code msg = emit (Diagnostic.error ~context:name ?op ?node ~code msg) in
  let eps = 1e-6 +. (1e-9 *. Float.abs t.Dpipe.makespan_cycles) in
  let epochs = t.Dpipe.epochs_unrolled in
  (* Completeness: every (node, epoch) instance exactly once. *)
  let counts = Hashtbl.create 64 in
  List.iter
    (fun (a : Dpipe.assignment) ->
      let k = (a.Dpipe.node, a.Dpipe.epoch) in
      Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
    t.Dpipe.assignments;
  List.iter
    (fun (a : Dpipe.assignment) ->
      if not (Dag.mem g a.Dpipe.node) then
        error ~node:a.Dpipe.node ~code:"E-SCHED-COUNT"
          (Printf.sprintf "assignment refers to unknown node %d" a.Dpipe.node)
      else if a.Dpipe.epoch < 0 || a.Dpipe.epoch >= epochs then
        error ~node:a.Dpipe.node ~code:"E-SCHED-COUNT"
          (Printf.sprintf "epoch %d outside the unrolled window [0, %d)" a.Dpipe.epoch epochs))
    t.Dpipe.assignments;
  List.iter
    (fun n ->
      List.iter
        (fun e ->
          match Option.value ~default:0 (Hashtbl.find_opt counts (n, e)) with
          | 1 -> ()
          | 0 ->
              error ~node:n ~code:"E-SCHED-COUNT"
                (Printf.sprintf "instance (node %d, epoch %d) is never scheduled" n e)
          | c ->
              error ~node:n ~code:"E-SCHED-COUNT"
                (Printf.sprintf "instance (node %d, epoch %d) scheduled %d times" n e c))
        (List.init epochs Fun.id))
    (Dag.nodes g);
  (* Interval sanity. *)
  List.iter
    (fun (a : Dpipe.assignment) ->
      if a.Dpipe.start_cycle < -.eps || a.Dpipe.end_cycle < a.Dpipe.start_cycle -. eps then
        error ~node:a.Dpipe.node ~code:"E-SCHED-TIME"
          (Printf.sprintf "instance (node %d, epoch %d) occupies [%g, %g)" a.Dpipe.node
             a.Dpipe.epoch a.Dpipe.start_cycle a.Dpipe.end_cycle))
    t.Dpipe.assignments;
  (* Mutual exclusion per PE array. *)
  let overlap r =
    let on_r =
      List.filter (fun (a : Dpipe.assignment) -> a.Dpipe.resource = r) t.Dpipe.assignments
      |> List.sort (fun (a : Dpipe.assignment) b -> compare a.Dpipe.start_cycle b.Dpipe.start_cycle)
    in
    let rec scan = function
      | (a : Dpipe.assignment) :: ((b : Dpipe.assignment) :: _ as rest) ->
          if a.Dpipe.end_cycle > b.Dpipe.start_cycle +. eps then
            error ~node:b.Dpipe.node ~code:"E-SCHED-OVERLAP"
              (Printf.sprintf
                 "%s runs (node %d, epoch %d) and (node %d, epoch %d) concurrently at cycle %g"
                 (Arch.resource_to_string r) a.Dpipe.node a.Dpipe.epoch b.Dpipe.node b.Dpipe.epoch
                 b.Dpipe.start_cycle);
          scan rest
      | _ -> ()
    in
    scan on_r
  in
  overlap Arch.Pe_1d;
  overlap Arch.Pe_2d;
  (* Dependency order across every epoch instance. *)
  let end_of = Hashtbl.create 64 in
  List.iter
    (fun (a : Dpipe.assignment) ->
      Hashtbl.replace end_of (a.Dpipe.node, a.Dpipe.epoch) a.Dpipe.end_cycle)
    t.Dpipe.assignments;
  List.iter
    (fun (a : Dpipe.assignment) ->
      List.iter
        (fun p ->
          match Hashtbl.find_opt end_of (p, a.Dpipe.epoch) with
          | Some producer_end when producer_end > a.Dpipe.start_cycle +. eps ->
              error ~node:a.Dpipe.node ~code:"E-SCHED-DEP"
                (Printf.sprintf
                   "edge %d -> %d violated in epoch %d: producer ends at %g, consumer starts at %g"
                   p a.Dpipe.node a.Dpipe.epoch producer_end a.Dpipe.start_cycle)
          | _ -> ())
        (Dag.preds g a.Dpipe.node))
    t.Dpipe.assignments;
  (* Reported aggregates. *)
  let max_end =
    List.fold_left
      (fun acc (a : Dpipe.assignment) -> Float.max acc a.Dpipe.end_cycle)
      0. t.Dpipe.assignments
  in
  if Float.abs (t.Dpipe.makespan_cycles -. max_end) > eps then
    error ~code:"E-SCHED-MAKESPAN"
      (Printf.sprintf "reported makespan %g, but the latest assignment ends at %g"
         t.Dpipe.makespan_cycles max_end);
  if
    t.Dpipe.steady_interval_cycles < -.eps
    || t.Dpipe.steady_interval_cycles > t.Dpipe.makespan_cycles +. eps
  then
    error ~code:"E-SCHED-INTERVAL"
      (Printf.sprintf "steady interval %g outside [0, makespan = %g]"
         t.Dpipe.steady_interval_cycles t.Dpipe.makespan_cycles);
  (* The chosen bipartition must re-pass the paper's four constraints. *)
  (match t.Dpipe.partition with
  | None -> ()
  | Some p ->
      if not (Partition.is_valid g p) then
        error ~code:"E-SCHED-PARTITION"
          (Fmt.str "recorded bipartition %a fails the validity constraints" Partition.pp p));
  List.rev !diags

let pinned ~name ~pin g (t : Dpipe.t) =
  List.filter_map
    (fun (a : Dpipe.assignment) ->
      let pinned_to = if Dag.mem g a.Dpipe.node then Some (pin a.Dpipe.node) else None in
      match pinned_to with
      | Some r when r <> a.Dpipe.resource ->
          Some
            (Diagnostic.error ~context:name ~node:a.Dpipe.node ~code:"E-SCHED-PIN"
               (Printf.sprintf "instance (node %d, epoch %d) runs on %s, but is pinned to %s"
                  a.Dpipe.node a.Dpipe.epoch
                  (Arch.resource_to_string a.Dpipe.resource)
                  (Arch.resource_to_string r)))
      | _ -> None)
    t.Dpipe.assignments
