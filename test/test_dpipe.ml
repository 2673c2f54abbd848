(* Tests for the DPipe scheduler: the DP of Eq. 43-46, pipeline validity
   (dependencies and resource exclusivity, checked by Sched_lint),
   steady-state extrapolation and the static/DP modes. *)

module Dpipe = Transfusion.Dpipe
module Diagnostic = Tf_analysis.Diagnostic
module Dag = Tf_dag.Dag
open Tf_arch

let arch =
  Arch.v ~name:"toy" ~clock_hz:1e9 ~vector_eff_2d:0.5 ~matrix_eff_1d:0.5
    ~pe_2d:(Pe_array.two_d 10 10) ~pe_1d:(Pe_array.one_d 10) ~buffer_bytes:(1 lsl 20)
    ~dram_bw_bytes_per_s:1e9 ()

(* A two-node producer-consumer graph: node 0 is matrix work, node 1 is
   vector work — the canonical pipelinable shape (matmul then softmax). *)
let producer_consumer = Dag.of_edges [ (0, "mm"); (1, "sm") ] [ (0, 1) ]
let load2 = function 0 -> 1000. | _ -> 100.
let matrix2 = function 0 -> true | _ -> false

let errors g sched = Diagnostic.errors (Tf_analysis.Sched_lint.verify g sched)

let check_ok g sched =
  match errors g sched with
  | [] -> ()
  | ds ->
      Alcotest.failf "invalid schedule: %s" (String.concat "; " (List.map Diagnostic.render ds))

let test_empty_and_cyclic () =
  let raises label f =
    Alcotest.(check bool) label true (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  raises "empty" (fun () -> Dpipe.schedule arch ~load:(fun _ -> 1.) ~matrix:(fun _ -> true) (Dpipe.plan Dag.empty));
  let cyclic = Dag.add_edge producer_consumer 1 0 in
  raises "cyclic" (fun () -> Dpipe.schedule arch ~load:load2 ~matrix:matrix2 (Dpipe.plan cyclic))

(* A NaN or negative load is refused up front, naming the node: the
   DP's comparison-based maxima would otherwise drop a NaN silently and
   report a finite steady interval for it.  Both modes check, since a
   pinned node's latency is read all the same. *)
let test_rejects_bad_latency () =
  let message_of f =
    match f () with
    | (_ : Dpipe.t) -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument msg -> msg
  in
  let contains msg sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (label, bad) ->
      let load = function 1 -> bad | _ -> 100. in
      List.iter
        (fun (mode_label, mode) ->
          let msg =
            message_of (fun () ->
                Dpipe.schedule ~mode arch ~load ~matrix:matrix2 (Dpipe.plan producer_consumer))
          in
          if not (contains msg "node 1") then
            Alcotest.failf "%s load, %s: message does not name node 1: %s" label mode_label msg)
        [ ("Dp", `Dp); ("Static", `Static (fun _ -> Arch.Pe_2d)) ])
    [ ("NaN", Float.nan); ("negative", -5.); ("infinite", Float.infinity) ]

let test_single_node () =
  let g = Dag.of_edges [ (0, "only") ] [] in
  let sched = Dpipe.schedule arch ~load:(fun _ -> 500.) ~matrix:(fun _ -> true) (Dpipe.plan g) in
  check_ok g sched;
  (* 500 load / 100 PEs = 5 cycles per epoch; no pipelining possible. *)
  Alcotest.(check (float 1e-9)) "steady" 5. sched.Dpipe.steady_interval_cycles;
  Alcotest.(check bool) "no bipartition of a single node" true (sched.Dpipe.partition = None)

let test_pipeline_overlap () =
  let sched = Dpipe.schedule arch ~load:load2 ~matrix:matrix2 (Dpipe.plan producer_consumer) in
  check_ok producer_consumer sched;
  (* Sequential: 1000/100 + 100/10 = 20 cycles per epoch.  Pipelined with
     the vector op overlapped on the 1D array, steady state approaches the
     matrix stage alone: 10 cycles. *)
  let sequential = Dpipe.sequential_cycles arch ~load:load2 ~matrix:matrix2 producer_consumer in
  Alcotest.(check (float 1e-9)) "sequential" 20. sequential;
  Alcotest.(check bool) "pipelining beats sequential" true
    (sched.Dpipe.steady_interval_cycles < sequential);
  Alcotest.(check bool) "steady at least the bottleneck stage" true
    (sched.Dpipe.steady_interval_cycles >= 10. -. 1e-9)

let test_partition_respected () =
  let sched = Dpipe.schedule arch ~load:load2 ~matrix:matrix2 (Dpipe.plan producer_consumer) in
  match sched.Dpipe.partition with
  | Some p ->
      Alcotest.(check (list int)) "first stage" [ 0 ] p.Tf_dag.Partition.first;
      Alcotest.(check (list int)) "second stage" [ 1 ] p.Tf_dag.Partition.second
  | None -> Alcotest.fail "expected a bipartition"

let test_static_mode () =
  let assign = function 0 -> Arch.Pe_2d | _ -> Arch.Pe_1d in
  let sched = Dpipe.schedule ~mode:(`Static assign) arch ~load:load2 ~matrix:matrix2 (Dpipe.plan producer_consumer) in
  check_ok producer_consumer sched;
  List.iter
    (fun (a : Dpipe.assignment) ->
      let expected = assign a.Dpipe.node in
      Alcotest.(check bool) "pinned resource" true (a.Dpipe.resource = expected))
    sched.Dpipe.assignments

let test_static_assign_called_once_per_node () =
  (* The [`Static] assignment is resolved once per node per schedule
     call; the DP reads the resolved array.  (FuseMax's assignment scans
     each op's dimensions, and the DP used to ask it once per instance
     of every candidate.) *)
  let cascade = Transfusion.Cascades.mha () in
  let g = Tf_einsum.Cascade.to_dag cascade in
  let ops = Array.of_list (Tf_einsum.Cascade.ops cascade) in
  let matrix n = Tf_einsum.Einsum.is_matrix_op ops.(n) in
  let load n = if matrix n then 1000. +. float_of_int n else 100. +. float_of_int n in
  let calls = Array.make (Dag.node_count g) 0 in
  let assign n =
    calls.(n) <- calls.(n) + 1;
    if matrix n then Arch.Pe_2d else Arch.Pe_1d
  in
  let schedule () = Dpipe.schedule ~mode:(`Static assign) arch ~load ~matrix (Dpipe.plan g) in
  let sched = schedule () in
  check_ok g sched;
  Array.iteri (fun n c -> Alcotest.(check int) (Printf.sprintf "node %d asked once" n) 1 c) calls;
  List.iter
    (fun (a : Dpipe.assignment) ->
      Alcotest.(check bool) "pinned resource" true
        (a.Dpipe.resource = if matrix a.Dpipe.node then Arch.Pe_2d else Arch.Pe_1d))
    sched.Dpipe.assignments;
  ignore (schedule ());
  Array.iteri (fun n c -> Alcotest.(check int) (Printf.sprintf "node %d, two calls" n) 2 c) calls

let test_dp_uses_both_arrays () =
  (* Two independent equal matrix ops on an edge-like part whose two
     arrays have comparable matrix throughput: the DP should spread them
     across both rather than queueing on the 2D. *)
  let balanced =
    Arch.v ~name:"balanced" ~matrix_eff_1d:1.0 ~pe_2d:(Pe_array.two_d 10 10)
      ~pe_1d:(Pe_array.one_d 100) ~buffer_bytes:(1 lsl 20) ~dram_bw_bytes_per_s:1e9 ()
  in
  let g = Dag.of_edges [ (0, "a"); (1, "b") ] [] in
  let load _ = 1000. and matrix _ = true in
  let sched = Dpipe.schedule balanced ~load ~matrix (Dpipe.plan g) in
  check_ok g sched;
  let used r = List.exists (fun (a : Dpipe.assignment) -> a.Dpipe.resource = r) sched.Dpipe.assignments in
  Alcotest.(check bool) "2D used" true (used Arch.Pe_2d);
  Alcotest.(check bool) "1D used" true (used Arch.Pe_1d);
  (* Serialized on the 2D alone each epoch costs 20 cycles; split across
     the equal arrays it costs 10. *)
  Alcotest.(check bool) "beats serialization" true
    (sched.Dpipe.steady_interval_cycles < Dpipe.sequential_cycles balanced ~load ~matrix g)

let test_total_cycles () =
  let sched = Dpipe.schedule arch ~load:load2 ~matrix:matrix2 (Dpipe.plan producer_consumer) in
  Alcotest.(check int) "8-epoch window" 8 sched.Dpipe.epochs_unrolled;
  let t8 = Dpipe.total_cycles sched ~epochs:8. in
  let t16 = Dpipe.total_cycles sched ~epochs:16. in
  Alcotest.(check (float 1e-9)) "exact at the unrolled count" sched.Dpipe.makespan_cycles t8;
  Alcotest.(check (float 1e-9))
    "linear extrapolation" (t8 +. (8. *. sched.Dpipe.steady_interval_cycles)) t16;
  Alcotest.(check bool) "sub-window scales down" true (Dpipe.total_cycles sched ~epochs:4. < t8)

(* Sched_lint catches a dropped instance, a consumer started before its
   producer, and an instance listed twice in place of another, which a
   count of the instances alone would miss. *)
let test_check_detects_violations () =
  let sched = Dpipe.schedule arch ~load:load2 ~matrix:matrix2 (Dpipe.plan producer_consumer) in
  let count_nodes s =
    List.filter_map
      (fun (d : Diagnostic.t) -> d.Diagnostic.location.Diagnostic.node)
      (Diagnostic.by_code "E-SCHED-COUNT" (errors producer_consumer s))
  in
  let broken = { sched with Dpipe.assignments = List.tl sched.Dpipe.assignments } in
  Alcotest.(check (list int)) "missing instance" [ 0 ] (count_nodes broken);
  let last = sched.Dpipe.epochs_unrolled - 1 in
  let is node (a : Dpipe.assignment) = a.Dpipe.node = node && a.Dpipe.epoch = last in
  let twice = List.find (is 0) sched.Dpipe.assignments in
  let duplicated =
    {
      sched with
      Dpipe.assignments =
        List.map (fun a -> if is 1 a then twice else a) sched.Dpipe.assignments;
    }
  in
  Alcotest.(check (list int))
    "(0, last) listed twice, (1, last) dropped" [ 0; 1 ]
    (List.sort compare (count_nodes duplicated));
  let swapped =
    {
      sched with
      Dpipe.assignments =
        List.map
          (fun (a : Dpipe.assignment) ->
            if a.Dpipe.node = 1 then { a with Dpipe.start_cycle = -1e9; end_cycle = -1e9 +. 1. }
            else a)
          sched.Dpipe.assignments;
    }
  in
  Alcotest.(check bool) "dependency violation" true
    (Diagnostic.by_code "E-SCHED-DEP" (errors producer_consumer swapped) <> [])

(* A chain where every stage is eligible everywhere: steady state must be
   bounded below by total load / total effective throughput. *)
let prop_steady_lower_bound =
  QCheck.Test.make ~name:"steady interval respects the throughput bound" ~count:50
    QCheck.(pair (int_range 2 8) (int_range 0 1000))
    (fun (n, seed) ->
      let state = Random.State.make [| seed |] in
      let loads = Array.init n (fun _ -> 10. +. Random.State.float state 1000.) in
      let g =
        Dag.of_edges (List.init n (fun i -> (i, i))) (List.init (n - 1) (fun i -> (i, i + 1)))
      in
      let load i = loads.(i) and matrix i = i mod 2 = 0 in
      let sched = Dpipe.schedule arch ~load ~matrix (Dpipe.plan g) in
      (match errors g sched with
      | [] -> ()
      | d :: _ -> QCheck.Test.fail_report (Diagnostic.render d));
      let total = Array.fold_left ( +. ) 0. loads in
      (* Peak throughput if every op ran at the best rate anywhere: 100 +
         10 PEs; the matrix-vs-vector efficiencies only lower it. *)
      sched.Dpipe.steady_interval_cycles >= total /. 110. -. 1e-6)

let prop_schedules_valid =
  QCheck.Test.make ~name:"random fan-out DAG schedules are valid" ~count:50
    QCheck.(pair (int_range 1 7) (int_range 0 1000))
    (fun (n, seed) ->
      let state = Random.State.make [| seed |] in
      let edges =
        List.concat_map
          (fun i ->
            List.filter_map
              (fun j -> if j > i && Random.State.bool state then Some (i, j) else None)
              (List.init n Fun.id))
          (List.init n Fun.id)
      in
      let g = Dag.of_edges (List.init n (fun i -> (i, i))) edges in
      let load i = 50. +. float_of_int (i * 37 mod 400) in
      let matrix i = i mod 3 <> 0 in
      let sched = Dpipe.schedule arch ~load ~matrix (Dpipe.plan g) in
      errors g sched = [])

let prop_prune_matches_verify =
  (* Regression: the branch-and-bound pruner compared lower bounds to the
     shared incumbent with an absolute 1e-9 epsilon; at cycle-scale
     steady intervals (~1e6) that is below float ulp noise, so the fast
     path could prune a candidate the no-prune [~verify:true] path kept
     as a tie, and the two disagreed on the winner.  With the relative
     tolerance the fast and verify runs must pick identical schedules. *)
  QCheck.Test.make ~name:"pruned search equals verify search" ~count:40
    QCheck.(pair (int_range 2 7) (int_range 0 1000))
    (fun (n, seed) ->
      let state = Random.State.make [| seed |] in
      let edges =
        List.concat_map
          (fun i ->
            List.filter_map
              (fun j -> if j > i && Random.State.bool state then Some (i, j) else None)
              (List.init n Fun.id))
          (List.init n Fun.id)
      in
      let g = Dag.of_edges (List.init n (fun i -> (i, i))) edges in
      (* Equal loads manufacture exact steady-interval ties between
         candidates, the regime the absolute epsilon got wrong. *)
      let load _ = 256. in
      let matrix i = i mod 2 = 0 in
      let fast = Dpipe.schedule arch ~load ~matrix (Dpipe.plan g) in
      let full = Dpipe.schedule ~verify:true arch ~load ~matrix (Dpipe.plan g) in
      fast.Dpipe.steady_interval_cycles = full.Dpipe.steady_interval_cycles
      && fast.Dpipe.partition = full.Dpipe.partition
      && fast.Dpipe.order = full.Dpipe.order
      && fast.Dpipe.assignments = full.Dpipe.assignments)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "transfusion_dpipe"
    [
      ( "dpipe",
        [
          quick "rejects empty and cyclic" test_empty_and_cyclic;
          quick "rejects NaN, negative and infinite latencies" test_rejects_bad_latency;
          quick "single node" test_single_node;
          quick "pipeline overlap" test_pipeline_overlap;
          quick "bipartition choice" test_partition_respected;
          quick "static mode pins resources" test_static_mode;
          quick "static assign asked once per node" test_static_assign_called_once_per_node;
          quick "DP balances across arrays" test_dp_uses_both_arrays;
          quick "total_cycles extrapolation" test_total_cycles;
          quick "check detects violations" test_check_detects_violations;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_steady_lower_bound; prop_schedules_valid; prop_prune_matches_verify ] );
    ]
