(* Tests for the Tf_parallel domain pool: order preservation, exception
   propagation, sequential degradation, the memo table, and the
   determinism contract on the real evaluation paths (Exp_common sweeps
   and Dpipe.schedule must be bit-identical under any pool size). *)

module P = Tf_parallel
module Dpipe = Transfusion.Dpipe
module Strategies = Transfusion.Strategies
module Dag = Tf_dag.Dag
module E = Tf_experiments
open Tf_workloads

exception Boom of int

let test_order_preserved () =
  let n = 1000 in
  let input = Array.init n (fun i -> i) in
  let f i = (i * i) + 7 in
  let expected = Array.map f input in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d matches sequential" jobs)
        expected
        (P.map ~jobs f input))
    [ 1; 2; 4; 8 ];
  Alcotest.(check (array int)) "tiny chunks" expected (P.map ~jobs:4 ~chunk:1 f input);
  Alcotest.(check (array int)) "oversized chunk" expected (P.map ~jobs:4 ~chunk:10_000 f input);
  Alcotest.(check (array int)) "empty input" [||] (P.map ~jobs:4 f [||]);
  Alcotest.(check (list int)) "map_list" (List.init 10 (fun i -> i + 1))
    (P.map_list ~jobs:4 (fun i -> i + 1) (List.init 10 (fun i -> i)))

let test_exception_propagates () =
  let input = Array.init 64 (fun i -> i) in
  let attempt jobs =
    try
      ignore (P.map ~jobs ~chunk:1 (fun i -> if i = 17 then raise (Boom i) else i) input : int array);
      Alcotest.fail "expected Boom to propagate"
    with Boom i -> Alcotest.(check int) "payload survives" 17 i
  in
  attempt 1;
  attempt 4;
  (* The pool must stay usable after a failed batch. *)
  Alcotest.(check (array int)) "pool survives failure"
    (Array.map succ input)
    (P.map ~jobs:4 succ input)

let test_jobs_one_is_sequential () =
  (* With one job the calling domain does all the work in input order:
     observable through a side effect log. *)
  let log = ref [] in
  let out = P.map ~jobs:1 (fun i -> log := i :: !log; i * 2) (Array.init 20 (fun i -> i)) in
  Alcotest.(check (list int)) "visited in order" (List.init 20 (fun i -> 19 - i)) !log;
  Alcotest.(check (array int)) "results" (Array.init 20 (fun i -> 2 * i)) out

let test_nested_map () =
  (* A map launched from inside a map degrades to sequential instead of
     deadlocking on the engine; results are still correct. *)
  let out =
    P.map ~jobs:4 ~chunk:1
      (fun i -> Array.fold_left ( + ) 0 (P.map ~jobs:4 (fun j -> i + j) (Array.init 5 Fun.id)))
      (Array.init 8 (fun i -> i))
  in
  Alcotest.(check (array int)) "nested results" (Array.init 8 (fun i -> (5 * i) + 10)) out

let test_memo () =
  let m = P.Memo.create ~capacity:16 () in
  let computes = ref 0 in
  let get k = P.Memo.find_or_compute m k (fun () -> incr computes; k * 10) in
  Alcotest.(check int) "first compute" 30 (get 3);
  Alcotest.(check int) "cached" 30 (get 3);
  Alcotest.(check int) "computed once" 1 !computes;
  Alcotest.(check (option int)) "find_opt hit" (Some 30) (P.Memo.find_opt m 3);
  Alcotest.(check (option int)) "find_opt miss" None (P.Memo.find_opt m 4);
  Alcotest.(check int) "length" 1 (P.Memo.length m);
  P.Memo.clear m;
  Alcotest.(check int) "cleared" 0 (P.Memo.length m);
  (* Concurrent same-key callers all see the one stored value. *)
  let shared = P.Memo.create ~capacity:16 () in
  let results =
    P.map ~jobs:4 ~chunk:1
      (fun _ -> P.Memo.find_or_compute shared "k" (fun () -> ref 0))
      (Array.init 16 (fun i -> i))
  in
  Array.iter
    (fun r -> Alcotest.(check bool) "all callers share one value" true (r == results.(0)))
    results

let test_memo_single_flight () =
  (* Regression: [find_or_compute] ran the thunk outside the lock with
     no in-flight tracking, so domains racing on one key each ran the
     (often expensive, possibly side-effecting) computation.  The
     in-flight marker must hold concurrent callers until the single
     computation settles: the thunk runs exactly once. *)
  let m = P.Memo.create ~capacity:16 () in
  let invocations = Atomic.make 0 in
  let slow_thunk () =
    Atomic.incr invocations;
    (* Stay in flight long enough for the other callers to pile up. *)
    let t0 = Sys.time () in
    while Sys.time () -. t0 < 0.05 do
      ignore (Sys.opaque_identity (Atomic.get invocations))
    done;
    42
  in
  let results =
    P.map ~jobs:4 ~chunk:1
      (fun _ -> P.Memo.find_or_compute m "key" slow_thunk)
      (Array.init 16 (fun i -> i))
  in
  Array.iter (fun r -> Alcotest.(check int) "every caller gets the value" 42 r) results;
  Alcotest.(check int) "thunk ran exactly once" 1 (Atomic.get invocations);
  (* A raising thunk caches nothing and unblocks waiters; the next
     caller retries the computation. *)
  let m2 = P.Memo.create ~capacity:16 () in
  (try ignore (P.Memo.find_or_compute m2 1 (fun () -> failwith "boom") : int)
   with Failure _ -> ());
  Alcotest.(check int) "retry after failure" 7 (P.Memo.find_or_compute m2 1 (fun () -> 7));
  Alcotest.(check int) "retried value cached" 7 (P.Memo.find_or_compute m2 1 (fun () -> 8))

let test_memo_max_entries () =
  let m = P.Memo.create ~capacity:8 () in
  (* Churn far past the bound: the settled population must never
     exceed it, and evictions must account for the overflow. *)
  for i = 1 to 100 do
    ignore (P.Memo.find_or_compute m i (fun () -> i * i) : int);
    Alcotest.(check bool) "bound holds under churn" true (P.Memo.length m <= 8)
  done;
  Alcotest.(check int) "population capped" 8 (P.Memo.length m);
  Alcotest.(check int) "evictions account for overflow" 92 (P.Memo.evictions m);
  (* LRU-ish: the most recent keys survive, evicted keys recompute. *)
  Alcotest.(check bool) "recent key resident" true (P.Memo.find_opt m 100 <> None);
  Alcotest.(check bool) "stale key evicted" true (P.Memo.find_opt m 1 = None);
  let recomputed = ref false in
  ignore
    (P.Memo.find_or_compute m 1 (fun () ->
         recomputed := true;
         1)
      : int);
  Alcotest.(check bool) "evicted key recomputes" true !recomputed;
  (* A hit refreshes recency: key 100's survivors change accordingly. *)
  ignore (P.Memo.find_opt m 95 : int option);
  for i = 200 to 206 do
    ignore (P.Memo.find_or_compute m i (fun () -> i) : int)
  done;
  Alcotest.(check bool) "touched key survives a near-full refill" true
    (P.Memo.find_opt m 95 <> None);
  Alcotest.(check bool) "capacity < 1 rejected" true
    (match P.Memo.create ~capacity:0 () with
    | exception Invalid_argument _ -> true
    | (_ : (int, int) P.Memo.t) -> false)

(* Seeded random traces of find_or_compute / find_opt / update (thunks
   and update functions that raise included) against a list-based LRU
   model: after every step the memo's residents, in recency order, with
   their values, and its eviction count must match the model's. *)
exception Thunk_failed

let test_memo_lru_oracle () =
  List.iter
    (fun capacity ->
      let rng = Random.State.make [| 17; capacity |] in
      let m = P.Memo.create ~capacity () in
      (* Most recently used first. *)
      let model = ref [] and evicted = ref 0 in
      let promote k v = model := (k, v) :: List.remove_assoc k !model in
      let insert k v =
        promote k v;
        let excess = List.length !model - capacity in
        if excess > 0 then begin
          evicted := !evicted + excess;
          model := List.filteri (fun i _ -> i < capacity) !model
        end
      in
      for step = 1 to 400 do
        let k = Random.State.int rng 12 in
        let fails = Random.State.int rng 5 = 0 in
        let what = Printf.sprintf "capacity %d step %d" capacity step in
        (match Random.State.int rng 3 with
        | 0 -> (
            let thunk () = if fails then raise Thunk_failed else step in
            let expected = List.assoc_opt k !model in
            match P.Memo.find_or_compute m k thunk with
            | v ->
                Alcotest.(check int) (what ^ " find_or_compute") (Option.value expected ~default:step) v;
                if expected = None then insert k v else promote k v
            | exception Thunk_failed ->
                Alcotest.(check bool) (what ^ " only a miss runs the thunk") true (expected = None))
        | 1 ->
            let expected = List.assoc_opt k !model in
            Alcotest.(check (option int)) (what ^ " find_opt") expected (P.Memo.find_opt m k);
            Option.iter (promote k) expected
        | _ -> (
            let f = function
              | _ when fails -> raise Thunk_failed
              | None -> step
              | Some v -> v + step
            in
            match P.Memo.update m k f with
            | () -> (
                match List.assoc_opt k !model with
                | Some v -> promote k (v + step)
                | None -> insert k step)
            | exception Thunk_failed -> ()));
        Alcotest.(check (list (pair int int))) (what ^ " residents") !model (P.Memo.residents m);
        Alcotest.(check int) (what ^ " length") (List.length !model) (P.Memo.length m);
        Alcotest.(check int) (what ^ " evictions") !evicted (P.Memo.evictions m)
      done)
    (List.init 8 (fun i -> i + 1))

let test_bounded_churn () =
  let b = P.Memo.create ~capacity:16 () in
  for i = 1 to 500 do
    P.Memo.update b i (fun _ -> i * 2);
    Alcotest.(check bool) "capacity holds under churn" true (P.Memo.length b <= 16)
  done;
  Alcotest.(check int) "population at capacity" 16 (P.Memo.length b);
  Alcotest.(check int) "evictions account for overflow" 484 (P.Memo.evictions b);
  Alcotest.(check bool) "recent key resident" true (P.Memo.find_opt b 500 = Some 1000);
  Alcotest.(check bool) "stale key evicted" true (P.Memo.find_opt b 1 = None);
  (* find_opt touches: a read keeps an old entry alive through churn. *)
  ignore (P.Memo.find_opt b 490 : int option);
  for i = 600 to 614 do
    P.Memo.update b i (fun _ -> i)
  done;
  Alcotest.(check bool) "touched key survives refill" true (P.Memo.find_opt b 490 <> None);
  (* update is read-modify-write. *)
  let lists = P.Memo.create ~capacity:4 () in
  P.Memo.update lists "k" (function None -> [ 1 ] | Some l -> 2 :: l);
  P.Memo.update lists "k" (function None -> [ 1 ] | Some l -> 2 :: l);
  Alcotest.(check bool) "update sees previous value" true
    (P.Memo.find_opt lists "k" = Some [ 2; 1 ]);
  P.Memo.clear b;
  Alcotest.(check int) "clear empties" 0 (P.Memo.length b)

let toy_arch =
  Tf_arch.Arch.v ~name:"ptoy" ~clock_hz:1e9 ~vector_eff_2d:0.5 ~matrix_eff_1d:0.5
    ~pe_2d:(Tf_arch.Pe_array.two_d 10 10) ~pe_1d:(Tf_arch.Pe_array.one_d 10)
    ~buffer_bytes:(1 lsl 20) ~dram_bw_bytes_per_s:1e9 ()

let diamond =
  Dag.of_edges
    [ (0, "qk"); (1, "sm"); (2, "av"); (3, "out") ]
    [ (0, 1); (1, 2); (2, 3) ]

let load4 = function 0 -> 4000. | 1 -> 300. | 2 -> 3500. | _ -> 900.
let matrix4 = function 1 -> false | _ -> true

let schedules_equal (a : Dpipe.t) (b : Dpipe.t) =
  a.Dpipe.partition = b.Dpipe.partition
  && a.Dpipe.order = b.Dpipe.order
  && a.Dpipe.assignments = b.Dpipe.assignments
  && a.Dpipe.makespan_cycles = b.Dpipe.makespan_cycles
  && a.Dpipe.steady_interval_cycles = b.Dpipe.steady_interval_cycles

let with_jobs jobs f =
  P.set_jobs jobs;
  Fun.protect ~finally:P.clear_jobs_override f

let test_dpipe_schedule_deterministic () =
  let run () = Dpipe.schedule toy_arch ~load:load4 ~matrix:matrix4 (Dpipe.plan diamond) in
  let seq = with_jobs 1 run in
  let par = with_jobs 4 run in
  Alcotest.(check bool) "parallel schedule identical to sequential" true
    (schedules_equal seq par);
  (* Pruning must only discard losers: the verified (prune-free) search
     picks the same winner. *)
  let verified = with_jobs 4 (fun () -> Dpipe.schedule ~verify:true toy_arch ~load:load4 ~matrix:matrix4 (Dpipe.plan diamond)) in
  Alcotest.(check bool) "pruned winner matches verified winner" true
    (schedules_equal seq verified)

let test_dpipe_half_makespan_consistency () =
  (* The single-pass full+half evaluation agrees exactly with two
     independent DP runs on every candidate of the grid. *)
  Alcotest.(check bool) "diamond DAG" true
    (Dpipe.Private.steady_consistency_check toy_arch ~load:load4 ~matrix:matrix4
       (Dpipe.plan diamond));
  Alcotest.(check bool) "mha cascade DAG" true
    (let w = Workload.v Presets.t5 ~seq_len:1024 in
     let { Transfusion.Layer_costs.load; matrix; plan; _ } =
       Transfusion.Layer_costs.problem w (Transfusion.Cascades.mha ())
     in
     Dpipe.Private.steady_consistency_check toy_arch ~load ~matrix plan)

let test_dpipe_shared_plan_parallel () =
  (* A search shares one plan across its slices: scheduling several load
     vectors through one plan in a 4-domain pool equals scheduling each
     through its own fresh plan on one domain, in both modes. *)
  let w = Workload.v ~batch:4 Presets.bert ~seq_len:4096 in
  List.iter
    (fun (label, cascade, pinned) ->
      let problems =
        List.map (fun m0 -> Transfusion.Layer_costs.problem ~m0 w cascade) [ 64; 128; 256; 512 ]
      in
      let shared = (List.hd problems).Transfusion.Layer_costs.plan in
      let mode = if pinned then `Static (Strategies.fusemax_assign toy_arch cascade) else `Dp in
      List.iteri
        (fun k { Transfusion.Layer_costs.load; matrix; dag; _ } ->
          let par = with_jobs 4 (fun () -> Dpipe.schedule ~mode toy_arch ~load ~matrix shared) in
          let seq =
            with_jobs 1 (fun () -> Dpipe.schedule ~mode toy_arch ~load ~matrix (Dpipe.plan dag))
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s, load vector %d" label k)
            true (schedules_equal seq par))
        problems)
    [
      ("fused layer", Transfusion.Cascades.full_layer Tf_einsum.Scalar_op.Gelu, false);
      ("pinned MHA", Transfusion.Cascades.mha (), true);
    ]

let results_equal (a : Strategies.result) (b : Strategies.result) =
  a.Strategies.latency = b.Strategies.latency
  && a.Strategies.energy = b.Strategies.energy
  && a.Strategies.traffic = b.Strategies.traffic
  && a.Strategies.tiling = b.Strategies.tiling

let test_sweep_deterministic () =
  (* The real acceptance property: an Exp_common sweep primed in
     parallel yields results bit-identical to the sequential run. *)
  let archs = [ Tf_arch.Presets.edge ] in
  let workloads = [ Workload.v Presets.t5 ~seq_len:1024; Workload.v Presets.bert ~seq_len:1024 ] in
  let points = E.Exp_common.sweep_points archs workloads in
  let collect () =
    List.map (fun (a, w, s) -> E.Exp_common.evaluate ~tileseek_iterations:20 a w s) points
  in
  E.Exp_common.reset_cache ();
  let seq = with_jobs 1 (fun () -> E.Exp_common.prime ~tileseek_iterations:20 points; collect ()) in
  E.Exp_common.reset_cache ();
  let par = with_jobs 4 (fun () -> E.Exp_common.prime ~tileseek_iterations:20 points; collect ()) in
  List.iter2
    (fun a b -> Alcotest.(check bool) "point identical across pool sizes" true (results_equal a b))
    seq par

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "tf_parallel"
    [
      ( "pool",
        [
          quick "order preserved" test_order_preserved;
          quick "exception propagation" test_exception_propagates;
          quick "jobs=1 is sequential" test_jobs_one_is_sequential;
          quick "nested map degrades" test_nested_map;
        ] );
      ( "memo",
        [
          quick "memo table" test_memo;
          quick "single-flight compute" test_memo_single_flight;
          quick "max_entries bound" test_memo_max_entries;
          quick "LRU oracle" test_memo_lru_oracle;
        ] );
      ( "bounded",
        [
          quick "capacity under churn" test_bounded_churn;
        ] );
      ( "determinism",
        [
          quick "dpipe schedule" test_dpipe_schedule_deterministic;
          quick "dpipe half-makespan single pass" test_dpipe_half_makespan_consistency;
          quick "dpipe plan shared across loads" test_dpipe_shared_plan_parallel;
          quick "exp_common sweep" test_sweep_deterministic;
        ] );
    ]
