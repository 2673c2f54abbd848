(* Tests for the cost-model substrate: traffic records, phases, the
   latency composition rule and the Accelergy-style energy breakdown. *)

open Tf_costmodel
open Tf_arch

let arch =
  Arch.v ~name:"toy" ~clock_hz:1e9 ~element_bytes:2 ~vector_eff_2d:0.5 ~matrix_eff_1d:0.5
    ~pe_2d:(Pe_array.two_d 10 10) ~pe_1d:(Pe_array.one_d 10) ~buffer_bytes:(1024 * 1024)
    ~dram_bw_bytes_per_s:1e9 ()

let traffic ?(dram_reads = 0.) ?(dram_writes = 0.) ?(buffer = 0.) ?(rf = 0.) ?(macs = 0.)
    ?(vector_ops = 0.) () =
  {
    Traffic.dram_reads;
    dram_writes;
    buffer_reads = buffer;
    buffer_writes = buffer;
    regfile_accesses = rf;
    macs;
    vector_ops;
  }

(* Traffic -------------------------------------------------------------- *)

let test_traffic_algebra () =
  let a = traffic ~dram_reads:10. ~macs:100. () in
  let b = traffic ~dram_writes:5. ~vector_ops:50. () in
  let s = Traffic.add a b in
  Alcotest.(check (float 0.)) "reads" 10. s.Traffic.dram_reads;
  Alcotest.(check (float 0.)) "writes" 5. s.Traffic.dram_writes;
  Alcotest.(check (float 0.)) "dram elements" 15. (Traffic.dram_elements s);
  Alcotest.(check (float 0.)) "dram bytes" 30. (Traffic.dram_bytes ~element_bytes:2 s);
  Alcotest.(check (float 0.)) "compute" 150. (Traffic.compute_ops s);
  let doubled = Traffic.scale 2. a in
  Alcotest.(check (float 0.)) "scale" 20. doubled.Traffic.dram_reads;
  Alcotest.(check (float 0.)) "sum" 15. (Traffic.dram_elements (Traffic.sum [ a; b ]));
  Alcotest.(check (float 0.)) "zero" 0. (Traffic.dram_elements Traffic.zero)

(* Phase ----------------------------------------------------------------- *)

let test_sequential_execution () =
  (* 1000 matrix slots on a 100-PE 2D array (peak) then 500 vector slots
     on a 10-PE 1D array: 10 + 50 cycles, no overlap. *)
  let e = Phase.sequential_execution arch ~matrix_load:1000. ~vector_load:500. in
  Alcotest.(check (float 1e-9)) "makespan" 60. e.Phase.makespan_cycles;
  Alcotest.(check (float 0.)) "useful 2d" 1000. e.Phase.useful_2d_slots;
  Alcotest.(check (float 0.)) "useful 1d" 500. e.Phase.useful_1d_slots

let test_phase_scale () =
  let e = Phase.sequential_execution arch ~matrix_load:100. ~vector_load:0. in
  let p = Phase.v ~name:"x" ~kind:Phase.Qkv ~traffic:(traffic ~dram_reads:10. ()) ~execution:e () in
  let p2 = Phase.scale 3. p in
  Alcotest.(check (float 1e-9)) "traffic scaled" 30. p2.Phase.traffic.Traffic.dram_reads;
  Alcotest.(check (float 1e-9)) "makespan scaled" (3. *. e.Phase.makespan_cycles)
    p2.Phase.execution.Phase.makespan_cycles

(* Latency ---------------------------------------------------------------- *)

let phase ~name ~cycles ~dram ?(useful_2d = 0.) ?(useful_1d = 0.) ?(kind = Phase.Qkv) ?parts () =
  Phase.v ?parts ~name ~kind
    ~traffic:(traffic ~dram_reads:dram ())
    ~execution:{ Phase.makespan_cycles = cycles; useful_2d_slots = useful_2d; useful_1d_slots = useful_1d }
    ()

let test_latency_bounds () =
  (* compute: 1000 cycles = 1us; memory: 1e6 elements * 2B / 1GB/s = 2ms. *)
  let memory_bound = phase ~name:"mb" ~cycles:1000. ~dram:1e6 () in
  let compute_bound = phase ~name:"cb" ~cycles:1e7 ~dram:10. () in
  let result = Latency.evaluate arch [ memory_bound; compute_bound ] in
  (match result.Latency.phases with
  | [ a; b ] ->
      Alcotest.(check bool) "first memory bound" true (a.Latency.bound = `Memory);
      Alcotest.(check (float 1e-12)) "memory time" 2e-3 a.Latency.total_s;
      Alcotest.(check bool) "second compute bound" true (b.Latency.bound = `Compute);
      Alcotest.(check (float 1e-12)) "compute time" 1e-2 b.Latency.total_s
  | _ -> Alcotest.fail "expected two phases");
  Alcotest.(check (float 1e-12)) "phases sum" 1.2e-2 result.Latency.total_s

let test_latency_utilization () =
  (* One phase, 100 cycles, 2D busy with 5000 useful slots out of a
     100-PE * 100-cycle = 10000 capacity -> 50%. *)
  let p = phase ~name:"u" ~cycles:100. ~dram:0. ~useful_2d:5000. ~useful_1d:200. () in
  let result = Latency.evaluate arch [ p ] in
  Alcotest.(check (float 1e-9)) "2d util" 0.5 result.Latency.util_2d;
  Alcotest.(check (float 1e-9)) "1d util" 0.2 result.Latency.util_1d

let test_latency_empty () =
  Alcotest.check_raises "no phases" (Invalid_argument "Latency.evaluate: no phases") (fun () ->
      ignore (Latency.evaluate arch []))

let test_per_kind_attribution () =
  let p1 = phase ~name:"qkv" ~cycles:1000. ~dram:0. ~kind:Phase.Qkv () in
  let p2 =
    phase ~name:"fused" ~cycles:3000. ~dram:0. ~kind:Phase.Fused_stack
      ~parts:[ (Phase.Mha, 0.5); (Phase.Ffn, 0.5) ]
      ()
  in
  let result = Latency.evaluate arch [ p1; p2 ] in
  let seconds = Latency.per_kind_seconds result in
  let get kind = List.assoc kind seconds in
  Alcotest.(check (float 1e-12)) "qkv" 1e-6 (get Phase.Qkv);
  Alcotest.(check (float 1e-12)) "mha from parts" 1.5e-6 (get Phase.Mha);
  Alcotest.(check (float 1e-12)) "ffn from parts" 1.5e-6 (get Phase.Ffn);
  Alcotest.(check (float 1e-12)) "layernorm zero" 0. (get Phase.Layernorm)

(* Energy ----------------------------------------------------------------- *)

let test_energy_breakdown () =
  let e = arch.Arch.energy in
  let t =
    {
      Traffic.dram_reads = 100.;
      dram_writes = 50.;
      buffer_reads = 1000.;
      buffer_writes = 500.;
      regfile_accesses = 10000.;
      macs = 100000.;
      vector_ops = 20000.;
    }
  in
  let b = Energy.of_traffic arch t in
  Alcotest.(check (float 1e-6)) "dram" (150. *. e.Energy_table.dram_access_pj) b.Energy.dram_pj;
  Alcotest.(check (float 1e-6)) "buffer" (1500. *. e.Energy_table.buffer_access_pj) b.Energy.buffer_pj;
  Alcotest.(check (float 1e-6)) "rf" (10000. *. e.Energy_table.regfile_access_pj) b.Energy.regfile_pj;
  Alcotest.(check (float 1e-6)) "compute"
    ((100000. *. e.Energy_table.mac_pj) +. (20000. *. e.Energy_table.vector_op_pj))
    b.Energy.compute_pj;
  Alcotest.(check (float 1e-6)) "total" (b.Energy.dram_pj +. b.Energy.buffer_pj +. b.Energy.regfile_pj +. b.Energy.compute_pj)
    (Energy.total_pj b)

let test_energy_fractions () =
  let b = { Energy.dram_pj = 50.; buffer_pj = 30.; regfile_pj = 15.; compute_pj = 5. } in
  let fractions = Energy.fractions b in
  let total = List.fold_left (fun acc (_, f) -> acc +. f) 0. fractions in
  Alcotest.(check (float 1e-12)) "fractions sum to 1" 1. total;
  Alcotest.(check (float 1e-12)) "dram share" 0.5 (List.assoc "DRAM" fractions);
  Alcotest.(check (list string)) "component order" [ "DRAM"; "GlobalBuffer"; "RegisterFile"; "PE" ]
    (List.map fst fractions)

let test_energy_algebra () =
  let b = { Energy.dram_pj = 1.; buffer_pj = 2.; regfile_pj = 3.; compute_pj = 4. } in
  Alcotest.(check (float 0.)) "add" 20. (Energy.total_pj (Energy.add b b))

(* Roofline ---------------------------------------------------------------- *)

let test_roofline_balance () =
  (* toy arch: 110 PEs at 1 GHz over 1 GB/s = 110 slots per byte. *)
  Alcotest.(check (float 1e-9)) "machine balance" 110. (Roofline.machine_balance arch)

let test_roofline_phase () =
  let memory_bound =
    Phase.v ~name:"mb" ~kind:Phase.Qkv
      ~traffic:(traffic ~dram_reads:1e6 ~macs:1e6 ())
      ~execution:{ Phase.makespan_cycles = 1.; useful_2d_slots = 0.; useful_1d_slots = 0. }
      ()
  in
  let a = Roofline.of_phase arch memory_bound in
  (* 1e6 slots over 2e6 bytes = 0.5 slots/B << 110. *)
  Alcotest.(check (float 1e-9)) "intensity" 0.5 a.Roofline.intensity;
  Alcotest.(check bool) "memory bound" true (a.Roofline.bound = `Memory);
  Alcotest.(check bool) "attainable fraction" true
    (Float.abs (a.Roofline.attainable_fraction -. (0.5 /. 110.)) < 1e-9);
  let compute_bound =
    Phase.v ~name:"cb" ~kind:Phase.Ffn
      ~traffic:(traffic ~dram_reads:1. ~macs:1e9 ())
      ~execution:{ Phase.makespan_cycles = 1.; useful_2d_slots = 0.; useful_1d_slots = 0. }
      ()
  in
  Alcotest.(check bool) "compute bound" true
    ((Roofline.of_phase arch compute_bound).Roofline.bound = `Compute);
  let no_traffic =
    Phase.v ~name:"nt" ~kind:Phase.Mha ~traffic:(traffic ~macs:10. ())
      ~execution:{ Phase.makespan_cycles = 1.; useful_2d_slots = 0.; useful_1d_slots = 0. }
      ()
  in
  Alcotest.(check bool) "zero traffic is compute bound" true
    ((Roofline.of_phase arch no_traffic).Roofline.bound = `Compute)

let test_roofline_einsum () =
  let open Tf_einsum in
  let matmul =
    Einsum.contraction (Tensor_ref.v "Z" [ "m"; "n" ])
      [ Tensor_ref.v "A" [ "m"; "k" ]; Tensor_ref.v "B" [ "k"; "n" ] ]
  in
  (* Large square matmul: intensity grows with size -> compute bound. *)
  let big = Extents.of_list [ ("m", 1024); ("k", 1024); ("n", 1024) ] in
  Alcotest.(check bool) "big matmul compute bound" true
    ((Roofline.of_einsum arch big matmul).Roofline.bound = `Compute);
  (* Tiny matmul: memory bound even at compulsory traffic. *)
  let small = Extents.of_list [ ("m", 4); ("k", 4); ("n", 4) ] in
  Alcotest.(check bool) "small matmul memory bound" true
    ((Roofline.of_einsum arch small matmul).Roofline.bound = `Memory)

let prop_latency_monotone =
  QCheck.Test.make ~name:"phase latency is monotone in compute cycles" ~count:100
    QCheck.(pair (float_range 1. 1e6) (float_range 1. 1e6))
    (fun (c1, c2) ->
      let lo = Float.min c1 c2 and hi = Float.max c1 c2 in
      let eval c = (Latency.evaluate arch [ phase ~name:"m" ~cycles:c ~dram:100. () ]).Latency.total_s in
      eval lo <= eval hi +. 1e-15)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "tf_costmodel"
    [
      ("traffic", [ quick "algebra" test_traffic_algebra ]);
      ( "phase",
        [ quick "sequential execution" test_sequential_execution; quick "scaling" test_phase_scale ] );
      ( "latency",
        [
          quick "compute vs memory bound" test_latency_bounds;
          quick "utilization" test_latency_utilization;
          quick "empty rejected" test_latency_empty;
          quick "per-kind attribution" test_per_kind_attribution;
        ] );
      ( "energy",
        [
          quick "breakdown" test_energy_breakdown;
          quick "fractions" test_energy_fractions;
          quick "algebra" test_energy_algebra;
        ] );
      ( "roofline",
        [
          quick "machine balance" test_roofline_balance;
          quick "phase classification" test_roofline_phase;
          quick "einsum classification" test_roofline_einsum;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_latency_monotone ]);
    ]
