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

(* The DP kernel reads the plan's arrays without bounds checks.  These
   are the invariants that make that safe, and that make every
   dependency the DP reads one it has already written: predecessors are
   dense indices, each bipartition's first side is predecessor-closed
   (so a predecessor's instance is never in a later wave), and each
   order is a topological permutation of the dense indices (so within a
   wave a predecessor is placed first).  Checked once per plan. *)
let check_dense plan =
  let n = Array.length plan.ids in
  let fail what = invalid_arg ("Dpipe.plan: " ^ what) in
  let each_edge f = Array.iteri (fun i ps -> Array.iter (fun p -> f p i) ps) plan.preds in
  each_edge (fun p _ -> if p < 0 || p >= n then fail "predecessor index out of range");
  Array.iter
    (fun part ->
      if Array.length part.stage <> n then fail "stage array of the wrong length";
      each_edge (fun p i ->
          if part.stage.(p) > part.stage.(i) then fail "bipartition not predecessor-closed"))
    plan.parts;
  Array.iter
    (fun (_, ord) ->
      if Array.length ord <> n then fail "order of the wrong length";
      let pos = Array.make n (-1) in
      Array.iteri
        (fun k i ->
          if i < 0 || i >= n || pos.(i) >= 0 then fail "order is not a permutation";
          pos.(i) <- k)
        ord;
      each_edge (fun p i -> if pos.(p) > pos.(i) then fail "order is not topological"))
    plan.orders

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
  let plan =
    {
      ids;
      preds = Array.map (fun id -> dense (Dag.preds g id)) ids;
      dag_preds = Dag.preds g;
      parts;
      orders = Array.of_list (List.map (fun o -> (o, dense o)) (Topo.all ~limit:order_limit g));
    }
  in
  check_dense plan;
  plan

let plan_nodes plan = Array.length plan.ids

(* The loads of one [schedule] call over a plan, by dense index: each
   node's latency on either array and the smaller of the two.  A
   [`Static] pin is data here, not a branch in the DP: resolved once per
   node ([assign] may be costly — FuseMax's scans the op's dimensions),
   it sets the other array's latency to infinity, which the DP's
   strict earliest-finish comparison never picks. *)
type ctx = {
  plan : plan;
  lat1 : float array;  (* latency on the 1D array *)
  lat2 : float array;  (* latency on the 2D array *)
  minlat : float array;
  total_minlat : float;  (* sum of [minlat], in index order *)
}

(* A NaN or negative latency would silently break the DP: the
   comparisons that replace [Float.max] there drop a NaN where
   [Float.max] would carry it, and a negative one runs time backwards. *)
let build_ctx arch ~load ~matrix ~mode plan =
  let latencies resource =
    Array.map
      (fun id ->
        let l = node_latency arch ~load ~matrix id resource in
        if not (Float.is_finite l && l >= 0.) then
          invalid_arg
            (Printf.sprintf "Dpipe.schedule: node %d has latency %g on the %s array" id l
               (Arch.resource_to_string resource));
        l)
      plan.ids
  in
  let lat1 = latencies Arch.Pe_1d and lat2 = latencies Arch.Pe_2d in
  (match mode with
  | `Dp -> ()
  | `Static assign ->
      Array.iteri
        (fun i id ->
          match assign id with
          | Arch.Pe_1d -> lat2.(i) <- Float.infinity
          | Arch.Pe_2d -> lat1.(i) <- Float.infinity)
        plan.ids);
  let minlat = Array.mapi (fun i l1 -> Float.min l1 lat2.(i)) lat1 in
  { plan; lat1; lat2; minlat; total_minlat = Array.fold_left ( +. ) 0. minlat }

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
   ties, so a pruned candidate can never re-qualify as a tie there.
   [incumbent] is finite here, so the comparison equals [Float.max 1.]. *)
let prune_tolerance incumbent =
  let a = Float.abs incumbent in
  1e-9 *. if a > 1. then a else 1.

(* The flat arrays one DP run fills, by instance slot [i * epochs + e]
   ([i] dense): each instance's end and start cycle and its array, the
   half tail's end cycles by dense index, and the four timelines ([tl]:
   0 and 1 are the main run's 1D and 2D arrays, 2 and 3 the half tail's
   private copies).  A run reads only slots it has written itself (see
   [check_dense]), so a scratch is reused across candidates without
   clearing. *)
type scratch = {
  end_of : float array;
  start_of : float array;
  res_of : Arch.resource array;
  rem_end : float array;
  tl : float array;
}

let scratch plan ~epochs =
  let n = plan_nodes plan in
  {
    end_of = Array.create_float (n * epochs);
    start_of = Array.create_float (n * epochs);
    res_of = Array.make (n * epochs) Arch.Pe_2d;
    rem_end = Array.create_float n;
    tl = Array.make 4 0.;
  }

(* The DP's scalars, in one all-float record: OCaml stores its fields
   unboxed, so the per-instance updates below allocate nothing, where a
   float [ref] captured by a closure boxes every write.  [dep] is the
   readiness of the instance being placed, and [start]/[finish] the span
   [place] chose for it. *)
type clock = {
  mutable mk : float;
  mutable mk_half : float;
  mutable rem_busy : float;
  mutable dep : float;
  mutable start : float;
  mutable finish : float;
}

(* The placement step, the whole of the DP's per-instance work: put
   instance [i] (ready at [k.dep]) on whichever of the timelines
   [tl.(b)] (1D) and [tl.(b + 1)] (2D) finishes it first, 2D on ties;
   advance that timeline, write the span to [k.start]/[k.finish] and
   return the array.  The maxima are comparisons, not [Float.max]: on
   OCaml 5, [Float.max x y] calls [caml_signbit] (a C call with a stack
   switch) whenever [y > x] fails, 5.7 ns against 1.0 ns for the
   comparison per max and add (2-core Intel Xeon VM).  Every operand
   here is finite and non-negative, never a negative zero ([build_ctx]
   rejects anything else), where the two agree bit for bit.  [b] is 0
   for the main run and 2 for the half tail. *)
let place ctx k tl b i =
  let dep = k.dep in
  let rt1 = Array.unsafe_get tl b and rt2 = Array.unsafe_get tl (b + 1) in
  let s2 = if dep > rt2 then dep else rt2 in
  let e2 = s2 +. Array.unsafe_get ctx.lat2 i in
  let s1 = if dep > rt1 then dep else rt1 in
  let e1 = s1 +. Array.unsafe_get ctx.lat1 i in
  if e1 < e2 then begin
    Array.unsafe_set tl b e1;
    k.start <- s1;
    k.finish <- e1;
    Arch.Pe_1d
  end
  else begin
    Array.unsafe_set tl (b + 1) e2;
    k.start <- s2;
    k.finish <- e2;
    Arch.Pe_2d
  end

(* The DP of Eq. 43-46, fed in wave order, into scratch [sc].

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

   Every run, the search's and the winner's alike, fills the same flat
   arrays through the same [place]: there is no per-instance branch on
   the mode or on whether the assignments are wanted, and [assignments]
   reads them back afterwards.  The DP allocates nothing but its
   [clock] and its result. *)
let eval_candidate ctx sc ~epochs ~part ~ord ~prune_bound =
  let n = Array.length ord in
  if Array.length sc.end_of < n * epochs then invalid_arg "Dpipe: scratch too small";
  let preds = ctx.plan.preds and stage = part.stage and minlat = ctx.minlat in
  let end_of = sc.end_of and start_of = sc.start_of and res_of = sc.res_of in
  let rem_end = sc.rem_end and tl = sc.tl in
  let smax = match part.split with None -> 0 | Some _ -> 1 in
  let eh = Int.max 1 (epochs / 2) in
  let k =
    {
      mk = 0.;
      mk_half = 0.;
      rem_busy = float_of_int epochs *. ctx.total_minlat;
      dep = 0.;
      start = 0.;
      finish = 0.;
    }
  in
  Array.fill tl 0 4 0.;
  (* Replay the half run's final wave on a snapshot of the timelines:
     stage-1 instances of epoch [eh - 1], in position order.  Writes go
     to the tail's timelines and [rem_end], so the full run is
     untouched. *)
  let simulate_half_tail () =
    tl.(2) <- tl.(0);
    tl.(3) <- tl.(1);
    k.mk_half <- k.mk;
    let e = eh - 1 in
    for pos = 0 to n - 1 do
      let i = Array.unsafe_get ord pos in
      if Array.unsafe_get stage i = 1 then begin
        let ps = Array.unsafe_get preds i in
        k.dep <- 0.;
        for j = 0 to Array.length ps - 1 do
          let p = Array.unsafe_get ps j in
          let v =
            if Array.unsafe_get stage p = 1 then Array.unsafe_get rem_end p
            else Array.unsafe_get end_of ((p * epochs) + e)
          in
          if v > k.dep then k.dep <- v
        done;
        ignore (place ctx k tl 2 i : Arch.resource);
        Array.unsafe_set rem_end i k.finish;
        if k.finish > k.mk_half then k.mk_half <- k.finish
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
        let avg = (tl.(0) +. tl.(1) +. k.rem_busy) /. 2. in
        let lb_mk = if avg > k.mk then avg else k.mk in
        let lb_steady = (lb_mk -. k.mk_half) /. float_of_int (epochs - eh) in
        if lb_steady > incumbent +. prune_tolerance incumbent then pruned := true
      end
    end;
    if not !pruned then begin
      for pos = 0 to n - 1 do
        let i = Array.unsafe_get ord pos in
        let e = !w - Array.unsafe_get stage i in
        if e >= 0 && e < epochs then begin
          let ps = Array.unsafe_get preds i in
          k.dep <- 0.;
          for j = 0 to Array.length ps - 1 do
            let v = Array.unsafe_get end_of ((Array.unsafe_get ps j * epochs) + e) in
            if v > k.dep then k.dep <- v
          done;
          let r = place ctx k tl 0 i in
          let slot = (i * epochs) + e in
          Array.unsafe_set end_of slot k.finish;
          Array.unsafe_set start_of slot k.start;
          Array.unsafe_set res_of slot r;
          if k.finish > k.mk then k.mk <- k.finish;
          k.rem_busy <- k.rem_busy -. Array.unsafe_get minlat i
        end
      done;
      incr w
    end
  done;
  if !pruned then Pruned
  else
    let steady =
      if epochs > eh then Float.max 0. ((k.mk -. k.mk_half) /. float_of_int (epochs - eh))
      else k.mk
    in
    Done { makespan = k.mk; makespan_half = k.mk_half; steady }

(* The assignments of the unpruned run [eval_candidate] last made into
   [sc], in its feed order. *)
let assignments ctx sc ~epochs ~part ~ord =
  let n = Array.length ord in
  let wmax = epochs - 1 + match part.split with None -> 0 | Some _ -> 1 in
  let acc = ref [] in
  for w = wmax downto 0 do
    for pos = n - 1 downto 0 do
      let i = ord.(pos) in
      let e = w - part.stage.(i) in
      if e >= 0 && e < epochs then begin
        let slot = (i * epochs) + e in
        acc :=
          {
            node = ctx.plan.ids.(i);
            epoch = e;
            resource = sc.res_of.(slot);
            start_cycle = sc.start_of.(slot);
            end_cycle = sc.end_of.(slot);
          }
          :: !acc
      end
    done
  done;
  !acc

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

(* The scratches of one [schedule] call, as a lock-free stack: each
   candidate takes one and puts it back, so a call allocates one per
   domain that joins its search, not one per candidate.  Only a
   scratch's holder touches it, so two calls (or two threads of one
   domain) never share one. *)
let rec take_scratch pool fresh =
  match Atomic.get pool with
  | [] -> fresh ()
  | sc :: rest as l -> if Atomic.compare_and_set pool l rest then sc else take_scratch pool fresh

let rec give_scratch pool sc =
  let l = Atomic.get pool in
  if not (Atomic.compare_and_set pool l (sc :: l)) then give_scratch pool sc

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
  let ctx = build_ctx arch ~load ~matrix ~mode plan in
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
  let n_orders = Array.length plan.orders in
  let pairs =
    Array.init
      (Array.length selected * n_orders)
      (fun k -> (plan.parts.(selected.(k / n_orders)), plan.orders.(k mod n_orders)))
  in
  Tf_obs.Counter.add m_candidates (Array.length pairs);
  let incumbent = Atomic.make Float.infinity in
  let pool = Atomic.make [] in
  let fresh () = scratch plan ~epochs in
  let eval (part, (order, ord)) =
    Tf_obs.Histogram.time m_candidate_seconds @@ fun () ->
    let sc = take_scratch pool fresh in
    let result =
      if verify then begin
        (* Sanitizer mode: no pruning, and every candidate materializes
           its assignments so it can be validated, not just the winner. *)
        match eval_candidate ctx sc ~epochs ~part ~ord ~prune_bound:no_prune with
        | Pruned ->
            invalid_arg
              "Dpipe.schedule: verify-mode candidate reported Pruned under the no-prune bound"
        | Done { makespan; steady; _ } ->
            Tf_obs.Counter.incr m_evaluated;
            let candidate =
              {
                partition = part.split;
                order;
                assignments = assignments ctx sc ~epochs ~part ~ord;
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
          eval_candidate ctx sc ~epochs ~part ~ord ~prune_bound:(fun () -> Atomic.get incumbent)
        with
        | Pruned ->
            Tf_obs.Counter.incr m_pruned;
            None
        | Done { makespan; steady; _ } ->
            Tf_obs.Counter.incr m_evaluated;
            shrink_incumbent incumbent steady;
            Some (steady, makespan)
    in
    give_scratch pool sc;
    result
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
      (* Only the winner materializes its assignment list: its DP runs
         once more, through the same kernel, and is read back. *)
      let sc = take_scratch pool fresh in
      let assignments =
        match eval_candidate ctx sc ~epochs ~part ~ord ~prune_bound:no_prune with
        | Pruned ->
            invalid_arg
              "Dpipe.schedule: winning candidate reported Pruned on re-evaluation under the \
               no-prune bound (cost model not deterministic?)"
        | Done _ -> assignments ctx sc ~epochs ~part ~ord
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
  module Float_replay = Replay (struct
    type t = float

    let zero = 0.
    let add = ( +. )
    let max = Float.max
  end)

  let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

  let steady_consistency_check ~mode arch ~load ~matrix plan =
    let ctx = build_ctx arch ~load ~matrix ~mode plan in
    let parts = Array.sub plan.parts 0 (Int.min eval_partitions (Array.length plan.parts)) in
    let eh = Int.max 1 (epochs / 2) in
    let sc = scratch plan ~epochs in
    let run e ~part ~ord =
      match eval_candidate ctx sc ~epochs:e ~part ~ord ~prune_bound:no_prune with
      | Pruned ->
          invalid_arg
            "Dpipe.Private.steady_consistency_check: candidate reported Pruned under the \
             no-prune bound"
      | Done { makespan; makespan_half; steady } -> (makespan, makespan_half, steady)
    in
    let same (a, b, c) (x, y, z) = same_bits a x && same_bits b y && same_bits c z in
    Array.for_all
      (fun part ->
        Array.for_all
          (fun (order, ord) ->
            (* The search's run, whose arrays nobody reads... *)
            let searched = run epochs ~part ~ord in
            (* ...and the winner's: the same run, read back. *)
            let ((mk, mk_half, steady) as recorded) = run epochs ~part ~ord in
            let assignments = assignments ctx sc ~epochs ~part ~ord in
            (* Reference: two independent DP runs, as the pre-refactor
               [evaluate_candidate] performed. *)
            let mk_ref, _, _ = run eh ~part ~ord in
            let steady_ref = Float.max 0. ((mk -. mk_ref) /. float_of_int (epochs - eh)) in
            let replayed =
              Float_replay.replay ~preds:plan.dag_preds
                ~time:(fun id r -> node_latency arch ~load ~matrix id r)
                {
                  partition = part.split;
                  order;
                  assignments;
                  epochs_unrolled = epochs;
                  makespan_cycles = mk;
                  steady_interval_cycles = 0.;
                  useful_2d_per_epoch = 0.;
                  useful_1d_per_epoch = 0.;
                }
            in
            let replays_exactly =
              match replayed with
              | Error _ -> false
              | Ok (instances, replay_mk) ->
                  same_bits replay_mk mk
                  && List.for_all2
                       (fun (a : assignment) (r : Float_replay.instance) ->
                         a.node = r.node && a.epoch = r.epoch && a.resource = r.resource
                         && same_bits a.start_cycle r.start_t
                         && same_bits a.end_cycle r.end_t)
                       assignments instances
            in
            same searched recorded
            && same_bits mk_half mk_ref
            && same_bits steady steady_ref
            && replays_exactly)
          plan.orders)
      parts
end
