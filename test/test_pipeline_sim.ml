(* Tests for the discrete-event replay of DPipe schedules: the simulated
   makespan must reproduce the analytic one, busy time must match the
   assigned loads, and corrupted schedules must deadlock. *)

module Dpipe = Transfusion.Dpipe
module Sim = Transfusion.Pipeline_sim
module Dag = Tf_dag.Dag
open Tf_arch

let arch =
  Arch.v ~name:"sim" ~vector_eff_2d:0.5 ~matrix_eff_1d:0.5 ~pe_2d:(Pe_array.two_d 8 8)
    ~pe_1d:(Pe_array.one_d 8) ~buffer_bytes:(1 lsl 20) ~dram_bw_bytes_per_s:1e9 ()

let chain =
  Dag.of_edges [ (0, "a"); (1, "b"); (2, "c") ] [ (0, 1); (1, 2) ]

let load = function 0 -> 640. | 1 -> 80. | _ -> 320.
let matrix = function 0 | 2 -> true | _ -> false

let test_replay_matches_dp () =
  let sched = Dpipe.schedule arch ~load ~matrix (Dpipe.plan chain) in
  match Sim.replay arch ~load ~matrix chain sched with
  | Ok outcome ->
      Alcotest.(check bool) "makespans agree" true (Sim.agrees sched outcome);
      Alcotest.(check int) "all instances" (3 * sched.Dpipe.epochs_unrolled) outcome.Sim.instances
  | Error e -> Alcotest.failf "replay failed: %s" e

let test_busy_accounting () =
  let sched = Dpipe.schedule arch ~load ~matrix (Dpipe.plan chain) in
  match Sim.replay arch ~load ~matrix chain sched with
  | Ok outcome ->
      (* Busy time of each array equals the sum of its instances'
         latencies; both are bounded by the makespan. *)
      Alcotest.(check bool) "2d busy <= makespan" true
        (outcome.Sim.busy_2d_cycles <= outcome.Sim.makespan_cycles +. 1e-9);
      Alcotest.(check bool) "1d busy <= makespan" true
        (outcome.Sim.busy_1d_cycles <= outcome.Sim.makespan_cycles +. 1e-9);
      Alcotest.(check bool) "some work happened" true
        (outcome.Sim.busy_2d_cycles +. outcome.Sim.busy_1d_cycles > 0.)
  | Error e -> Alcotest.failf "replay failed: %s" e

let test_deadlock_detection () =
  let sched = Dpipe.schedule arch ~load ~matrix (Dpipe.plan chain) in
  (* Corrupt the schedule: force producer and consumer onto one resource
     with the consumer issued first. *)
  let corrupted =
    {
      sched with
      Dpipe.assignments =
        List.map
          (fun (a : Dpipe.assignment) ->
            let start_cycle =
              (* invert issue order within each epoch *)
              1e9 -. a.Dpipe.start_cycle
            in
            { a with Dpipe.resource = Arch.Pe_2d; start_cycle })
          sched.Dpipe.assignments;
    }
  in
  match Sim.replay arch ~load ~matrix chain corrupted with
  | Ok _ -> Alcotest.fail "expected deadlock"
  | Error _ -> ()

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let test_gantt () =
  let sched = Dpipe.schedule arch ~load ~matrix (Dpipe.plan chain) in
  let text = Sim.gantt ~width:40 ~label:(fun n -> Printf.sprintf "op%d" n) sched in
  Alcotest.(check bool) "mentions both lanes" true
    (contains text "2D array:" && contains text "1D array:");
  Alcotest.(check bool) "draws spans" true (contains text "#")

(* Golden text snapshot of the Gantt rendering on the tiny chain —
   the same regeneration protocol as test_golden.ml:
   GOLDEN_REGEN=1 dune runtest rewrites test/golden/gantt.txt. *)
let from_root = Sys.file_exists "test/golden"
let golden_read = Filename.concat (if from_root then "test/golden" else "golden") "gantt.txt"
let golden_source =
  Filename.concat (if from_root then "test/golden" else "../../../test/golden") "gantt.txt"

let regen = Sys.getenv_opt "GOLDEN_REGEN" <> None

let test_gantt_golden () =
  let sched = Dpipe.schedule arch ~load ~matrix (Dpipe.plan chain) in
  let text = Sim.gantt ~width:48 ~label:(fun n -> [| "a"; "b"; "c" |].(n)) sched in
  if regen then begin
    let oc = open_out golden_source in
    output_string oc text;
    close_out oc;
    Printf.printf "golden: regenerated %s\n" golden_source
  end
  else
    let golden =
      try
        let ic = open_in_bin golden_read in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with Sys_error _ ->
        Alcotest.failf
          "golden file %s missing — regenerate with GOLDEN_REGEN=1 dune runtest and commit it"
          golden_read
    in
    Alcotest.(check string) "gantt snapshot" golden text

(* Random DAG shared by the event-recording properties (same
   construction as prop_replay_agrees). *)
let random_dag n seed =
  let state = Random.State.make [| seed |] in
  let edges =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun j -> if j > i && Random.State.bool state then Some (i, j) else None)
          (List.init n Fun.id))
      (List.init n Fun.id)
  in
  Dag.of_edges (List.init n (fun i -> (i, i))) edges

let rand_load i = 16. +. float_of_int ((i * 97) mod 512)
let rand_matrix i = i mod 2 = 0

let prop_events_tile_busy =
  QCheck.Test.make
    ~name:"per-resource event busy folds reproduce outcome busy bit-identically" ~count:60
    QCheck.(pair (int_range 1 7) (int_range 0 10000))
    (fun (n, seed) ->
      let g = random_dag n seed in
      let load = rand_load and matrix = rand_matrix in
      let sched = Dpipe.schedule arch ~load ~matrix (Dpipe.plan g) in
      match Sim.replay_events arch ~load ~matrix g sched with
      | Ok (outcome, events) ->
          (* Exact float equality, not a tolerance: events are recorded
             in completion order, so the fold replays the simulator's own
             addition sequence. *)
          let fold r =
            List.fold_left
              (fun acc (e : Sim.event) ->
                if e.Sim.resource = r then acc +. Sim.busy e else acc)
              0. events
          in
          Float.equal (fold Arch.Pe_2d) outcome.Sim.busy_2d_cycles
          && Float.equal (fold Arch.Pe_1d) outcome.Sim.busy_1d_cycles
          && List.length events = outcome.Sim.instances
      | Error _ -> false)

let prop_span_attribution =
  QCheck.Test.make
    ~name:"every event's span is exactly dep_wait + resource_wait + busy" ~count:60
    QCheck.(pair (int_range 1 7) (int_range 0 10000))
    (fun (n, seed) ->
      let g = random_dag n seed in
      let load = rand_load and matrix = rand_matrix in
      let sched = Dpipe.schedule arch ~load ~matrix (Dpipe.plan g) in
      match Sim.replay_events arch ~load ~matrix g sched with
      | Ok (_, events) ->
          List.for_all
            (fun (e : Sim.event) ->
              Float.equal (Sim.span e) (Sim.dep_wait e +. Sim.resource_wait e +. Sim.busy e)
              && (Sim.dep_wait e = 0. || Sim.resource_wait e = 0.)
              && Float.equal e.Sim.start_cycle
                   (Float.max e.Sim.ready_cycle e.Sim.queue_free_cycle)
              && Sim.busy e >= 0.)
            events
      | Error _ -> false)

let prop_events_outcome_unchanged =
  QCheck.Test.make ~name:"replay_events returns the same outcome as replay" ~count:40
    QCheck.(pair (int_range 1 7) (int_range 0 10000))
    (fun (n, seed) ->
      let g = random_dag n seed in
      let load = rand_load and matrix = rand_matrix in
      let sched = Dpipe.schedule arch ~load ~matrix (Dpipe.plan g) in
      match (Sim.replay arch ~load ~matrix g sched, Sim.replay_events arch ~load ~matrix g sched) with
      | Ok a, Ok (b, _) ->
          Float.equal a.Sim.makespan_cycles b.Sim.makespan_cycles
          && Float.equal a.Sim.busy_2d_cycles b.Sim.busy_2d_cycles
          && Float.equal a.Sim.busy_1d_cycles b.Sim.busy_1d_cycles
          && a.Sim.instances = b.Sim.instances
      | _ -> false)

let prop_replay_agrees =
  QCheck.Test.make ~name:"replay reproduces the DP makespan on random DAGs" ~count:60
    QCheck.(pair (int_range 1 7) (int_range 0 10000))
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
      let load i = 16. +. float_of_int ((i * 97) mod 512) in
      let matrix i = i mod 2 = 0 in
      let sched = Dpipe.schedule arch ~load ~matrix (Dpipe.plan g) in
      match Sim.replay arch ~load ~matrix g sched with
      | Ok outcome -> Sim.agrees sched outcome
      | Error _ -> false)

let prop_static_replay_agrees =
  QCheck.Test.make ~name:"replay agrees for static schedules too" ~count:40
    QCheck.(int_range 2 7)
    (fun n ->
      let g =
        Dag.of_edges (List.init n (fun i -> (i, i))) (List.init (n - 1) (fun i -> (i, i + 1)))
      in
      let load i = 100. +. float_of_int (i * 31) in
      let matrix i = i mod 2 = 0 in
      let assign i = if matrix i then Arch.Pe_2d else Arch.Pe_1d in
      let sched = Dpipe.schedule ~mode:(`Static assign) arch ~load ~matrix (Dpipe.plan g) in
      match Sim.replay arch ~load ~matrix g sched with
      | Ok outcome -> Sim.agrees sched outcome
      | Error _ -> false)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "transfusion_pipeline_sim"
    [
      ( "replay",
        [
          quick "matches the DP" test_replay_matches_dp;
          quick "busy accounting" test_busy_accounting;
          quick "deadlock detection" test_deadlock_detection;
          quick "gantt rendering" test_gantt;
          quick "gantt golden snapshot" test_gantt_golden;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_replay_agrees;
            prop_static_replay_agrees;
            prop_events_tile_busy;
            prop_span_attribution;
            prop_events_outcome_unchanged;
          ] );
    ]
