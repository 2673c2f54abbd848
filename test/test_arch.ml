(* Tests for the architecture model: PE arrays, energy tables, the full
   specification and the Table 3 presets. *)

open Tf_arch

let test_pe_array () =
  let a1 = Pe_array.one_d 256 in
  let a2 = Pe_array.two_d 16 32 in
  Alcotest.(check int) "1d pes" 256 (Pe_array.num_pes a1);
  Alcotest.(check int) "2d pes" 512 (Pe_array.num_pes a2);
  Alcotest.(check int) "1d rows" 256 (Pe_array.rows a1);
  Alcotest.(check int) "1d cols" 1 (Pe_array.cols a1);
  Alcotest.(check int) "2d rows" 16 (Pe_array.rows a2);
  Alcotest.(check int) "2d cols" 32 (Pe_array.cols a2);
  Alcotest.check_raises "bad width" (Invalid_argument "Pe_array.one_d: width < 1") (fun () ->
      ignore (Pe_array.one_d 0));
  Alcotest.check_raises "bad dims" (Invalid_argument "Pe_array.two_d: non-positive dimension")
    (fun () -> ignore (Pe_array.two_d 4 0))

let test_energy_table () =
  let e = Energy_table.default_45nm in
  Alcotest.(check bool) "dram >> buffer" true (e.Energy_table.dram_access_pj > 10. *. e.Energy_table.buffer_access_pj);
  Alcotest.(check bool) "buffer >> regfile" true
    (e.Energy_table.buffer_access_pj > 5. *. e.Energy_table.regfile_access_pj);
  let doubled = Energy_table.scale 2. e in
  Alcotest.(check (float 1e-9)) "scaled dram" (2. *. e.Energy_table.dram_access_pj)
    doubled.Energy_table.dram_access_pj;
  Alcotest.(check (float 1e-9)) "scaled mac" (2. *. e.Energy_table.mac_pj) doubled.Energy_table.mac_pj

let mk ?vector_eff_2d ?matrix_eff_1d () =
  Arch.v ?vector_eff_2d ?matrix_eff_1d ~name:"test" ~pe_2d:(Pe_array.two_d 4 4)
    ~pe_1d:(Pe_array.one_d 8) ~buffer_bytes:1024 ~dram_bw_bytes_per_s:100. ()

let test_arch_validation () =
  let raises label f =
    Alcotest.(check bool) label true (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  raises "bad eff" (fun () -> mk ~vector_eff_2d:0. ());
  raises "eff above one" (fun () -> mk ~matrix_eff_1d:1.5 ());
  raises "bad buffer" (fun () ->
      Arch.v ~name:"x" ~pe_2d:(Pe_array.two_d 2 2) ~pe_1d:(Pe_array.one_d 2) ~buffer_bytes:0
        ~dram_bw_bytes_per_s:1. ())

let test_effective_pes () =
  let a = mk ~vector_eff_2d:0.25 ~matrix_eff_1d:0.5 () in
  Alcotest.(check (float 1e-9)) "2d matrix at peak" 16. (Arch.effective_pes a Arch.Pe_2d ~matrix:true);
  Alcotest.(check (float 1e-9)) "2d vector derated" 4. (Arch.effective_pes a Arch.Pe_2d ~matrix:false);
  Alcotest.(check (float 1e-9)) "1d vector at peak" 8. (Arch.effective_pes a Arch.Pe_1d ~matrix:false);
  Alcotest.(check (float 1e-9)) "1d matrix derated" 4. (Arch.effective_pes a Arch.Pe_1d ~matrix:true)

let test_conversions () =
  let a = mk () in
  Alcotest.(check int) "buffer elements" 512 (Arch.buffer_elements a);
  Alcotest.(check (float 1e-9)) "bytes to seconds" 2. (Arch.bytes_to_seconds a 200.);
  Alcotest.(check (float 1e-9)) "cycles to seconds" 3e-9 (Arch.cycles_to_seconds a 3.);
  Alcotest.(check string) "resource names" "1D/2D"
    (Arch.resource_to_string Arch.Pe_1d ^ "/" ^ Arch.resource_to_string Arch.Pe_2d)

let test_presets_table3 () =
  (* Paper Table 3. *)
  let cloud = Presets.cloud in
  Alcotest.(check int) "cloud 2D" (256 * 256) (Pe_array.num_pes cloud.Arch.pe_2d);
  Alcotest.(check int) "cloud 1D" 256 (Pe_array.num_pes cloud.Arch.pe_1d);
  Alcotest.(check int) "cloud buffer 16MB" (16 * 1024 * 1024) cloud.Arch.buffer_bytes;
  Alcotest.(check (float 1.)) "cloud bw 400GB/s" 400e9 cloud.Arch.dram_bw_bytes_per_s;
  let edge = Presets.edge in
  Alcotest.(check int) "edge 2D" (16 * 16) (Pe_array.num_pes edge.Arch.pe_2d);
  Alcotest.(check int) "edge buffer 5MB" (5 * 1024 * 1024) edge.Arch.buffer_bytes;
  Alcotest.(check (float 1.)) "edge bw 30GB/s" 30e9 edge.Arch.dram_bw_bytes_per_s;
  Alcotest.(check int) "edge_32 2D" (32 * 32) (Pe_array.num_pes Presets.edge_32.Arch.pe_2d);
  Alcotest.(check int) "edge_64 2D" (64 * 64) (Pe_array.num_pes Presets.edge_64.Arch.pe_2d);
  Alcotest.(check int) "edge_64 buffer 8MB" (8 * 1024 * 1024) Presets.edge_64.Arch.buffer_bytes;
  Alcotest.(check int) "all presets" 4 (List.length Presets.all)

let test_presets_by_name () =
  Alcotest.(check bool) "cloud found" true (Presets.by_name "cloud" <> None);
  Alcotest.(check bool) "unknown" true (Presets.by_name "tpu_v9" = None)

let test_accelergy_derivation () =
  let open Accelergy in
  let node = node_45nm in
  let derived = energy_table () in
  Alcotest.(check (float 1e-9)) "mac = add + mul" 1.5 derived.Energy_table.mac_pj;
  (* The derived table lands within a small factor of the hand table. *)
  let default = Energy_table.default_45nm in
  let close a b = a /. b < 4. && b /. a < 4. in
  Alcotest.(check bool) "buffer energy consistent" true
    (close derived.Energy_table.buffer_access_pj default.Energy_table.buffer_access_pj);
  Alcotest.(check bool) "mac energy consistent" true
    (close derived.Energy_table.mac_pj default.Energy_table.mac_pj);
  Alcotest.(check (float 1e-9)) "dram passthrough" 200. derived.Energy_table.dram_access_pj;
  (* Bigger buffers cost more per access (sqrt scaling). *)
  Alcotest.(check bool) "sqrt capacity scaling" true
    (buffer_access_pj node ~capacity_bytes:(16 * 1024 * 1024) ~row_bytes:256
    > buffer_access_pj node ~capacity_bytes:(1024 * 1024) ~row_bytes:256);
  Alcotest.(check (float 1e-9)) "4x capacity doubles row energy"
    (2. *. buffer_access_pj node ~capacity_bytes:(1024 * 1024) ~row_bytes:256)
    (buffer_access_pj node ~capacity_bytes:(4 * 1024 * 1024) ~row_bytes:256)

let test_accelergy_scaling () =
  let open Accelergy in
  let n7 = scale_to_node node_45nm ~target_nm:7 in
  Alcotest.(check int) "node recorded" 7 n7.node_nm;
  Alcotest.(check bool) "energy shrinks quadratically" true
    (Float.abs ((n7.fp_add.energy_pj /. node_45nm.fp_add.energy_pj) -. (49. /. 2025.)) < 1e-9);
  Alcotest.(check bool) "bad node rejected" true
    (try ignore (scale_to_node node_45nm ~target_nm:0); false with Invalid_argument _ -> true)

let test_accelergy_area () =
  let open Accelergy in
  let cloud_area = arch_area_mm2 node_45nm Presets.cloud in
  let edge_area = arch_area_mm2 node_45nm Presets.edge in
  Alcotest.(check bool) "cloud die is bigger" true (cloud_area > edge_area);
  (* TPU-class parts are hundreds of mm^2; edge parts tens. *)
  Alcotest.(check bool) "cloud plausible" true (cloud_area > 50. && cloud_area < 2000.);
  Alcotest.(check bool) "edge plausible" true (edge_area > 1. && edge_area < 200.)

let prop_effective_monotone =
  QCheck.Test.make ~name:"effective pes never exceed peak" ~count:100
    QCheck.(pair (float_range 0.01 1.0) (float_range 0.01 1.0))
    (fun (v2, m1) ->
      let a = mk ~vector_eff_2d:v2 ~matrix_eff_1d:m1 () in
      Arch.effective_pes a Arch.Pe_2d ~matrix:false <= 16.
      && Arch.effective_pes a Arch.Pe_1d ~matrix:true <= 8.)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "tf_arch"
    [
      ( "arch",
        [
          quick "pe arrays" test_pe_array;
          quick "energy table" test_energy_table;
          quick "validation" test_arch_validation;
          quick "effective pes" test_effective_pes;
          quick "conversions" test_conversions;
          quick "Table 3 presets" test_presets_table3;
          quick "preset lookup" test_presets_by_name;
          quick "accelergy derivation" test_accelergy_derivation;
          quick "accelergy node scaling" test_accelergy_scaling;
          quick "accelergy area" test_accelergy_area;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_effective_monotone ]);
    ]
