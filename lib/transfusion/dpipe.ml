open Tf_arch
module Dag = Tf_dag.Dag
module Topo = Tf_dag.Topo
module Partition = Tf_dag.Partition

(* The search bounds (documented in dpipe.mli): pipeline epochs unrolled,
   bipartitions enumerated, the most load-balanced of those evaluated,
   and topological orders tried per bipartition. *)
let epochs = 8
let partition_limit = 512
let eval_partitions = 16
let order_limit = 4

type assignment = {
  node : int;
  epoch : int;
  resource : Arch.resource;
  start_cycle : float;
  end_cycle : float;
}

type t = {
  partition : Partition.t option;
  order : int list;
  assignments : assignment list;
  epochs_unrolled : int;
  makespan_cycles : float;
  steady_interval_cycles : float;
  useful_2d_per_epoch : float;
  useful_1d_per_epoch : float;
}

let node_latency arch ~load ~matrix node resource =
  load node /. Arch.effective_pes arch resource ~matrix:(matrix node)

let candidate_static_latency arch ~load ~matrix node =
  node_latency arch ~load ~matrix node (if matrix node then Arch.Pe_2d else Arch.Pe_1d)

(* Everything about a DAG that no load can change, built once per DAG
   and shared by every [schedule] over it.  Node ids are arbitrary ints,
   so everything is reindexed onto a dense [0, n) range and the DP runs on
   flat arrays only.  Immutable once built, so any number of domains may
   read it. *)
type part = {
  split : Partition.t option;  (* [None]: the whole DAG as one stage *)
  stage : int array;  (* dense index -> 0 (first stage) or 1 (second) *)
  first : int array;  (* dense indices of [split]'s first side, in its order *)
  second : int array;
}

type plan = {
  ids : int array;  (* dense index -> node id *)
  preds : int array array;  (* dense index -> pred dense indices *)
  dag_preds : int -> int list;  (* [Dag.preds] of the DAG, for [~verify]'s checks *)
  parts : part array;
      (* the first [partition_limit] bipartitions in enumeration order, or
         the one unsplit part when the DAG admits none *)
  orders : (int list * int array) array;
      (* the first [order_limit] topological orders, each with its dense
         index per position *)
}

let plan g =
  if Dag.node_count g = 0 then invalid_arg "Dpipe.plan: empty DAG";
  if not (Dag.is_acyclic g) then invalid_arg "Dpipe.plan: cyclic graph";
  let ids = Array.of_list (Dag.nodes g) in
  let n_nodes = Array.length ids in
  let index_of = Hashtbl.create (2 * n_nodes) in
  Array.iteri (fun i id -> Hashtbl.replace index_of id i) ids;
  let dense l = Array.of_list (List.map (Hashtbl.find index_of) l) in
  let part partition =
    let stage = Array.make n_nodes 0 in
    match partition with
    | None -> { split = None; stage; first = [||]; second = [||] }
    | Some (p : Partition.t) ->
        let second = dense p.Partition.second in
        Array.iter (fun i -> stage.(i) <- 1) second;
        { split = partition; stage; first = dense p.Partition.first; second }
  in
  let parts =
    match Partition.enumerate ~limit:partition_limit g with
    | [] -> [| part None |]
    | l -> Array.of_list (List.map (fun p -> part (Some p)) l)
  in
  {
    ids;
    preds = Array.map (fun id -> dense (Dag.preds g id)) ids;
    dag_preds = Dag.preds g;
    parts;
    orders = Array.of_list (List.map (fun o -> (o, dense o)) (Topo.all ~limit:order_limit g));
  }

let plan_nodes plan = Array.length plan.ids

(* The loads of one [schedule] call over a plan: each node's latency on
   either array and the smallest one the mode allows, by dense index. *)
type ctx = {
  plan : plan;
  lat1 : float array;  (* latency on the 1D array *)
  lat2 : float array;  (* latency on the 2D array *)
  minlat : float array;
  total_minlat : float;  (* sum of [minlat], in index order *)
  static : Arch.resource array option;
      (* [`Static assign] resolved once per node: [assign] may be costly
         (FuseMax's scans the op's dimensions) and the DP would otherwise
         ask it again for every instance of every candidate. *)
}

let build_ctx arch ~load ~matrix ~mode plan =
  let ids = plan.ids in
  let lat1 = Array.map (fun id -> node_latency arch ~load ~matrix id Arch.Pe_1d) ids in
  let lat2 = Array.map (fun id -> node_latency arch ~load ~matrix id Arch.Pe_2d) ids in
  let static = match mode with `Dp -> None | `Static assign -> Some (Array.map assign ids) in
  let minlat =
    match static with
    | None -> Array.mapi (fun i l1 -> Float.min l1 lat2.(i)) lat1
    | Some res ->
        Array.mapi (fun i r -> match r with Arch.Pe_1d -> lat1.(i) | Arch.Pe_2d -> lat2.(i)) res
  in
  { plan; lat1; lat2; minlat; total_minlat = Array.fold_left ( +. ) 0. minlat; static }

type eval_result =
  | Pruned
  | Done of { makespan : float; makespan_half : float; steady : float }

let m_schedules = Tf_obs.Counter.create ~help:"Dpipe.schedule calls" "dpipe.schedules_total"

let m_candidates =
  Tf_obs.Counter.create ~help:"(partition x order) candidates enumerated" "dpipe.candidates_total"

let m_pruned =
  Tf_obs.Counter.create ~help:"candidates abandoned mid-DP by branch-and-bound"
    "dpipe.pruned_total"

let m_evaluated =
  Tf_obs.Counter.create ~help:"candidates fully evaluated by the DP" "dpipe.evaluated_total"

let m_incumbent_updates =
  Tf_obs.Counter.create ~help:"shared incumbent improvements during candidate evaluation"
    "dpipe.incumbent_updates_total"

let m_candidate_seconds =
  Tf_obs.Histogram.create ~help:"per-candidate DP evaluation time (s)"
    ~buckets:[| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.; 10. |]
    "dpipe.candidate_seconds"

(* Tie-break tolerance, relative to the value compared against: steady
   intervals are cycle-scale (often 1e3..1e7), where the accumulated FP
   noise of the DP sums dwarfs any absolute 1e-9 epsilon — an absolute
   epsilon made the pruner drop candidates tied with the incumbent that
   the `~verify:true` path (no pruning) kept, so fast and verify runs
   could disagree on an equally-good winner.  The relative margin is
   also strictly wider than the absolute 1e-9 the winner fold uses for
   ties, so a pruned candidate can never re-qualify as a tie there. *)
let prune_tolerance incumbent = 1e-9 *. Float.max 1. (Float.abs incumbent)

(* The DP's scalars, in one all-float record: OCaml stores its fields
   unboxed, so the per-instance updates below allocate nothing, where a
   float [ref] captured by a closure boxes every write.  [t1]/[t2] are the
   arrays' timelines, [h1]/[h2] the half tail's private copies, [dep] the
   readiness of the instance being placed, and [start]/[finish] the span
   [pick] chose for it. *)
type clock = {
  mutable t1 : float;
  mutable t2 : float;
  mutable mk : float;
  mutable mk_half : float;
  mutable rem_busy : float;
  mutable h1 : float;
  mutable h2 : float;
  mutable dep : float;
  mutable start : float;
  mutable finish : float;
}

(* Place instance [i] (ready at [clk.dep]) on the main timelines or, with
   [tail], on the half tail's: write its span to [clk.start]/[clk.finish]
   and return its array.  The choice is the old candidate fold's: [`Dp]
   tries 2D then 1D and switches only on strictly earlier finish. *)
let pick ctx clk i ~tail =
  let rt1 = if tail then clk.h1 else clk.t1 and rt2 = if tail then clk.h2 else clk.t2 in
  match ctx.static with
  | Some res -> (
      match res.(i) with
      | Arch.Pe_1d ->
          let start = Float.max rt1 clk.dep in
          clk.start <- start;
          clk.finish <- start +. ctx.lat1.(i);
          Arch.Pe_1d
      | Arch.Pe_2d ->
          let start = Float.max rt2 clk.dep in
          clk.start <- start;
          clk.finish <- start +. ctx.lat2.(i);
          Arch.Pe_2d)
  | None ->
      let s2 = Float.max rt2 clk.dep in
      let e2 = s2 +. ctx.lat2.(i) in
      let s1 = Float.max rt1 clk.dep in
      let e1 = s1 +. ctx.lat1.(i) in
      if e1 < e2 then begin
        clk.start <- s1;
        clk.finish <- e1;
        Arch.Pe_1d
      end
      else begin
        clk.start <- s2;
        clk.finish <- e2;
        Arch.Pe_2d
      end

(* The DP of Eq. 43-46, fed in wave order.

   Instance (n, e) belongs to wave [e + stage n] (the second-stage work
   of epoch e shares its pipeline slot with the first-stage work of
   epoch e+1, paper Figure 7d); within a wave, instances run in
   topological-order position.  This reproduces exactly the feed order
   the former sort-based [instance_order] produced.

   Both makespans come out of the single run.  The half-unroll DP over
   [eh = max 1 (epochs / 2)] epochs shares every wave [< eh] with the
   full run, and its final wave [eh] holds only the stage-1 instances of
   epoch [eh - 1].  So at the wave-[eh] boundary we snapshot the
   timelines and simulate just those remainder instances on the
   snapshot (their predecessors are either earlier remainder instances
   or wave [< eh] instances, both already identical to the half run's),
   which yields the half-unroll makespan exactly — the full run then
   continues undisturbed.

   Branch-and-bound: once the half makespan is known, each remaining
   instance must still occupy one of the two timelines for at least its
   [minlat], so
     makespan >= (t1 + t2 + remaining_min_busy) / 2
   (the heavier timeline is at least the average — the "heavier stage
   load over effective PEs" bound applied to both arrays at once).
   That lower-bounds the steady interval; when it already exceeds the
   incumbent beyond the tie-break tolerance the candidate cannot win
   under [schedule]'s strict-improvement predicate and is abandoned
   mid-run.  [prune_bound] returns the incumbent (infinity disables).

   Besides the per-candidate arrays, the DP allocates nothing: its
   scalars live in a [clock] and [pick] returns a constant constructor. *)
let eval_candidate ctx ~epochs ~stage ~ord ~prune_bound ~record =
  let n = Array.length ord in
  let preds = ctx.plan.preds in
  let smax = if Array.exists (fun s -> s = 1) stage then 1 else 0 in
  let eh = Int.max 1 (epochs / 2) in
  let clk =
    {
      t1 = 0.;
      t2 = 0.;
      mk = 0.;
      mk_half = 0.;
      rem_busy = float_of_int epochs *. ctx.total_minlat;
      h1 = 0.;
      h2 = 0.;
      dep = 0.;
      start = 0.;
      finish = 0.;
    }
  in
  let end_of = Array.make (n * epochs) 0. in
  let asg = if record then Array.make (n * epochs) None else [||] in
  let asg_count = ref 0 in
  (* Replay the half run's final wave on a snapshot of the timelines:
     stage-1 instances of epoch [eh - 1], in position order.  Writes go
     to a private overlay so the full run is untouched. *)
  let simulate_half_tail () =
    clk.h1 <- clk.t1;
    clk.h2 <- clk.t2;
    clk.mk_half <- clk.mk;
    let rem_end = Array.make n Float.nan in
    let e = eh - 1 in
    for pos = 0 to n - 1 do
      let i = ord.(pos) in
      if stage.(i) = 1 then begin
        let ps = preds.(i) in
        clk.dep <- 0.;
        for k = 0 to Array.length ps - 1 do
          let p = ps.(k) in
          let v = if stage.(p) = 1 then rem_end.(p) else end_of.((p * epochs) + e) in
          if v > clk.dep then clk.dep <- v
        done;
        (match pick ctx clk i ~tail:true with
        | Arch.Pe_1d -> clk.h1 <- clk.finish
        | Arch.Pe_2d -> clk.h2 <- clk.finish);
        rem_end.(i) <- clk.finish;
        if clk.finish > clk.mk_half then clk.mk_half <- clk.finish
      end
    done
  in
  let pruned = ref false in
  let w = ref 0 in
  let wmax = epochs - 1 + smax in
  while (not !pruned) && !w <= wmax do
    if eh < epochs && !w >= eh then begin
      if !w = eh then simulate_half_tail ();
      let incumbent = prune_bound () in
      if incumbent < Float.infinity then begin
        let lb_mk = Float.max clk.mk ((clk.t1 +. clk.t2 +. clk.rem_busy) /. 2.) in
        let lb_steady = (lb_mk -. clk.mk_half) /. float_of_int (epochs - eh) in
        if lb_steady > incumbent +. prune_tolerance incumbent then pruned := true
      end
    end;
    if not !pruned then begin
      for pos = 0 to n - 1 do
        let i = ord.(pos) in
        let e = !w - stage.(i) in
        if e >= 0 && e < epochs then begin
          let ps = preds.(i) in
          clk.dep <- 0.;
          for k = 0 to Array.length ps - 1 do
            let v = end_of.((ps.(k) * epochs) + e) in
            if v > clk.dep then clk.dep <- v
          done;
          let r = pick ctx clk i ~tail:false in
          (match r with Arch.Pe_1d -> clk.t1 <- clk.finish | Arch.Pe_2d -> clk.t2 <- clk.finish);
          end_of.((i * epochs) + e) <- clk.finish;
          if clk.finish > clk.mk then clk.mk <- clk.finish;
          clk.rem_busy <- clk.rem_busy -. ctx.minlat.(i);
          if record then begin
            asg.(!asg_count) <-
              Some
                {
                  node = ctx.plan.ids.(i);
                  epoch = e;
                  resource = r;
                  start_cycle = clk.start;
                  end_cycle = clk.finish;
                };
            incr asg_count
          end
        end
      done;
      incr w
    end
  done;
  if !pruned then (Pruned, [])
  else begin
    let steady =
      if epochs > eh then Float.max 0. ((clk.mk -. clk.mk_half) /. float_of_int (epochs - eh))
      else clk.mk
    in
    let assignments =
      if record then
        Array.to_list (Array.map (function Some a -> a | None -> assert false) asg)
      else []
    in
    (Done { makespan = clk.mk; makespan_half = clk.mk_half; steady }, assignments)
  end

let no_prune () = Float.infinity

let check_with ~node_count ~preds t =
  let expected = node_count * t.epochs_unrolled in
  if List.length t.assignments <> expected then
    Error
      (Printf.sprintf "expected %d instances, got %d" expected (List.length t.assignments))
  else
    let end_of = Hashtbl.create 64 in
    List.iter (fun a -> Hashtbl.replace end_of (a.node, a.epoch) a.end_cycle) t.assignments;
    let dep_violation =
      List.find_opt
        (fun a ->
          List.exists
            (fun p ->
              match Hashtbl.find_opt end_of (p, a.epoch) with
              | Some e -> e > a.start_cycle +. 1e-6
              | None -> true)
            (preds a.node))
        t.assignments
    in
    match dep_violation with
    | Some a -> Error (Printf.sprintf "dependency violation at node %d epoch %d" a.node a.epoch)
    | None ->
        let overlap r =
          let on_r =
            List.filter (fun a -> a.resource = r) t.assignments
            |> List.sort (fun a b -> compare a.start_cycle b.start_cycle)
          in
          let rec scan = function
            | a :: (b :: _ as rest) ->
                if a.end_cycle > b.start_cycle +. 1e-6 then true else scan rest
            | _ -> false
          in
          scan on_r
        in
        if overlap Arch.Pe_1d || overlap Arch.Pe_2d then Error "resource overlap"
        else Ok ()

let check g t = check_with ~node_count:(Dag.node_count g) ~preds:(Dag.preds g) t

module type TIME = sig
  type t

  val zero : t
  val add : t -> t -> t
  val max : t -> t -> t
end

(* Re-derive a schedule's timeline from its structure alone — the
   instance feed order, each instance's recorded PE array, and the
   same-epoch dependency edges — over an arbitrary time domain.  With
   [T = float] and [time = node_latency] this reproduces the recorded
   start/end cycles bit-for-bit (the DP performs exactly this max/add
   sequence once the resource choices are fixed); with a symbolic
   domain it yields the timeline as a function of the sequence length,
   which is how Tf_analysis.Range_cert certifies a cached schedule
   structure over a whole seq-len range. *)
module Replay (T : TIME) = struct
  type instance = {
    node : int;
    epoch : int;
    resource : Arch.resource;
    start_t : T.t;
    end_t : T.t;
  }

  let replay ~preds ~time (t : t) =
    let end_of = Hashtbl.create 256 in
    let t1 = ref T.zero and t2 = ref T.zero in
    let mk = ref T.zero in
    let err = ref None in
    let instances =
      List.map
        (fun (a : assignment) ->
          let dep =
            List.fold_left
              (fun acc p ->
                match Hashtbl.find_opt end_of (p, a.epoch) with
                | Some v -> T.max acc v
                | None ->
                    if !err = None then
                      err :=
                        Some
                          (Printf.sprintf
                             "predecessor %d of node %d scheduled after it in epoch %d" p a.node
                             a.epoch);
                    acc)
              T.zero (preds a.node)
          in
          let timeline = match a.resource with Arch.Pe_1d -> t1 | Arch.Pe_2d -> t2 in
          let start_t = T.max !timeline dep in
          let end_t = T.add start_t (time a.node a.resource) in
          timeline := end_t;
          Hashtbl.replace end_of (a.node, a.epoch) end_t;
          mk := T.max !mk end_t;
          { node = a.node; epoch = a.epoch; resource = a.resource; start_t; end_t })
        t.assignments
    in
    match !err with Some e -> Error e | None -> Ok (instances, !mk)
end

(* Shrink the incumbent steady interval shared across parallel candidate
   evaluations.  Monotonically decreasing, so any candidate pruned
   against it would also lose against the final best: pruning never
   changes the winner, only skips provable losers. *)
let rec shrink_incumbent inc v =
  let cur = Atomic.get inc in
  if v < cur then
    if Atomic.compare_and_set inc cur v then Tf_obs.Counter.incr m_incumbent_updates
    else shrink_incumbent inc v

let schedule ?(mode = `Dp) ?(verify = false) arch ~load ~matrix plan =
  Tf_obs.Counter.incr m_schedules;
  Tf_obs.Trace.with_span ~cat:"dpipe"
    ~args:
      [
        ("arch", arch.Arch.name);
        ("nodes", string_of_int (plan_nodes plan));
        ("verify", string_of_bool verify);
      ]
    "dpipe.schedule"
  @@ fun () ->
  (* Rank bipartitions by stage load balance and evaluate only the best
     few: the steady interval of a two-stage pipeline is bounded below by
     its heavier stage.  The sort is stable, so ties keep enumeration
     order. *)
  let node_load = Array.map load plan.ids in
  let stage_imbalance (p : part) =
    let side idx = Array.fold_left (fun acc i -> acc +. node_load.(i)) 0. idx in
    Float.abs (side p.first -. side p.second)
  in
  let imbalance = Array.map stage_imbalance plan.parts in
  let ranked = Array.init (Array.length plan.parts) Fun.id in
  Array.stable_sort (fun a b -> compare imbalance.(a) imbalance.(b)) ranked;
  let selected = Array.sub ranked 0 (Int.min eval_partitions (Array.length ranked)) in
  let ctx = build_ctx arch ~load ~matrix ~mode plan in
  let n_orders = Array.length plan.orders in
  let pairs =
    Array.init
      (Array.length selected * n_orders)
      (fun k -> (plan.parts.(selected.(k / n_orders)), plan.orders.(k mod n_orders)))
  in
  Tf_obs.Counter.add m_candidates (Array.length pairs);
  let incumbent = Atomic.make Float.infinity in
  let eval (part, (order, ord)) =
    Tf_obs.Histogram.time m_candidate_seconds @@ fun () ->
    let stage = part.stage in
    if verify then begin
      (* Sanitizer mode: no pruning, and every candidate materializes
         its assignments so it can be validated, not just the winner. *)
      match
        eval_candidate ctx ~epochs ~stage ~ord ~prune_bound:no_prune ~record:true
      with
      | Pruned, _ ->
          invalid_arg
            "Dpipe.schedule: verify-mode candidate reported Pruned under the no-prune bound \
             (cost model returned a non-finite interval?)"
      | Done { makespan; steady; _ }, assignments ->
          Tf_obs.Counter.incr m_evaluated;
          let candidate =
            {
              partition = part.split;
              order;
              assignments;
              epochs_unrolled = epochs;
              makespan_cycles = makespan;
              steady_interval_cycles = steady;
              useful_2d_per_epoch = 0.;
              useful_1d_per_epoch = 0.;
            }
          in
          let node_count = plan_nodes plan in
          (match check_with ~node_count ~preds:plan.dag_preds candidate with
          | Ok () -> ()
          | Error e -> invalid_arg (Printf.sprintf "Dpipe.schedule: invalid candidate (%s)" e));
          Some (steady, makespan)
    end
    else
      match
        eval_candidate ctx ~epochs ~stage ~ord
          ~prune_bound:(fun () -> Atomic.get incumbent)
          ~record:false
      with
      | Pruned, _ ->
          Tf_obs.Counter.incr m_pruned;
          None
      | Done { makespan; steady; _ }, _ ->
          Tf_obs.Counter.incr m_evaluated;
          shrink_incumbent incumbent steady;
          Some (steady, makespan)
  in
  (* Each candidate DP is heavy, so claim them one at a time; the winner
     is picked by an in-order fold below, so neither parallelism nor
     pruning can change which candidate (first-best on ties) is chosen. *)
  let results = Tf_parallel.map ~chunk:1 eval pairs in
  let best = ref None in
  Array.iteri
    (fun idx res ->
      match res with
      | None -> ()
      | Some (steady, makespan) ->
          let better =
            match !best with
            | None -> true
            | Some (s, m, _) ->
                steady < s -. 1e-9 || (Float.abs (steady -. s) <= 1e-9 && makespan < m)
          in
          if better then best := Some (steady, makespan, idx))
    results;
  match !best with
  | None -> assert false
  | Some (steady, makespan, idx) ->
      let part, (order, ord) = pairs.(idx) in
      (* Only the winner materializes its assignment list. *)
      let assignments =
        match
          eval_candidate ctx ~epochs ~stage:part.stage ~ord ~prune_bound:no_prune ~record:true
        with
        | Pruned, _ ->
            invalid_arg
              "Dpipe.schedule: winning candidate reported Pruned on re-evaluation under the \
               no-prune bound (cost model not deterministic?)"
        | Done _, assignments -> assignments
      in
      let useful r =
        List.fold_left
          (fun acc a -> if a.resource = r then acc +. load a.node else acc)
          0. assignments
        /. float_of_int epochs
      in
      {
        partition = part.split;
        order;
        assignments;
        epochs_unrolled = epochs;
        makespan_cycles = makespan;
        steady_interval_cycles = steady;
        useful_2d_per_epoch = useful Arch.Pe_2d;
        useful_1d_per_epoch = useful Arch.Pe_1d;
      }

let total_cycles t ~epochs =
  let k = float_of_int t.epochs_unrolled in
  if epochs <= k then t.makespan_cycles *. (epochs /. k)
  else t.makespan_cycles +. ((epochs -. k) *. t.steady_interval_cycles)

let sequential_cycles arch ~load ~matrix g =
  List.fold_left
    (fun acc n -> acc +. candidate_static_latency arch ~load ~matrix n)
    0. (Dag.nodes g)

module Private = struct
  let steady_consistency_check arch ~load ~matrix plan =
    let ctx = build_ctx arch ~load ~matrix ~mode:`Dp plan in
    let parts = Array.sub plan.parts 0 (Int.min eval_partitions (Array.length plan.parts)) in
    let eh = Int.max 1 (epochs / 2) in
    Array.for_all
      (fun part ->
        Array.for_all
          (fun (_, ord) ->
            let run e =
              match
                eval_candidate ctx ~epochs:e ~stage:part.stage ~ord ~prune_bound:no_prune
                  ~record:false
              with
              | Pruned, _ ->
                  invalid_arg
                    "Dpipe.Private.steady_consistency_check: candidate reported Pruned under \
                     the no-prune bound"
              | Done { makespan; makespan_half; steady }, _ -> (makespan, makespan_half, steady)
            in
            let mk, mk_half, steady = run epochs in
            (* Reference: two independent DP runs, as the pre-refactor
               [evaluate_candidate] performed. *)
            let mk_ref, _, _ = run eh in
            let steady_ref = Float.max 0. ((mk -. mk_ref) /. float_of_int (epochs - eh)) in
            mk_half = mk_ref && steady = steady_ref)
          plan.orders)
      parts
end
