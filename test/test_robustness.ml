(* Failure injection and degenerate-input robustness: tiny buffers,
   single-head / single-batch workloads, invalid model shapes, and the
   export/selftest utilities. *)

module Strategies = Transfusion.Strategies
module Tileseek = Transfusion.Tileseek
module Latency = Tf_costmodel.Latency
open Tf_workloads

let tiny_model =
  Model.v ~name:"tiny" ~d_model:8 ~heads:1 ~head_dim:8 ~ffn_hidden:16 ~layers:1
    ~activation:Tf_einsum.Scalar_op.Relu

let test_model_validation () =
  let raises label f =
    Alcotest.(check bool) label true (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  raises "d_model mismatch" (fun () ->
      Model.v ~name:"bad" ~d_model:100 ~heads:3 ~head_dim:32 ~ffn_hidden:64 ~layers:1
        ~activation:Tf_einsum.Scalar_op.Relu);
  raises "non-positive" (fun () ->
      Model.v ~name:"bad" ~d_model:0 ~heads:1 ~head_dim:0 ~ffn_hidden:1 ~layers:1
        ~activation:Tf_einsum.Scalar_op.Relu);
  raises "bad workload" (fun () -> Workload.v tiny_model ~seq_len:0);
  raises "bad batch" (fun () -> Workload.v ~batch:0 tiny_model ~seq_len:64)

let test_degenerate_workloads () =
  (* Single batch, single head, short sequence: every strategy still
     evaluates and orders sanely. *)
  let w = Workload.v ~batch:1 tiny_model ~seq_len:64 in
  List.iter
    (fun arch ->
      let totals =
        List.map
          (fun s ->
            (fst (Strategies.evaluate ~tileseek_iterations:30 arch w s)).Strategies.latency
              .Latency.total_s)
          Strategies.all
      in
      List.iter
        (fun t ->
          Alcotest.(check bool) "finite positive latency" true (Float.is_finite t && t > 0.))
        totals)
    [ Tf_arch.Presets.cloud; Tf_arch.Presets.edge ]

let test_tiny_buffer_fallback () =
  (* A buffer too small for even the minimal tile: TileSeek refuses
     loudly rather than fabricating a config. *)
  let starved =
    Tf_arch.Arch.v ~name:"starved" ~pe_2d:(Tf_arch.Pe_array.two_d 4 4)
      ~pe_1d:(Tf_arch.Pe_array.one_d 4) ~buffer_bytes:64 ~dram_bw_bytes_per_s:1e9 ()
  in
  let w = Workload.v Presets.llama3 ~seq_len:4096 in
  Alcotest.(check bool) "fallback refuses" true
    (try ignore (Tileseek.fallback starved w); false with Invalid_argument _ -> true)

let test_seq_one_tile () =
  (* A sequence equal to one key/value tile (m1 = 1 everywhere). *)
  let w = Workload.v ~batch:1 tiny_model ~seq_len:256 in
  let r, _ = Strategies.evaluate ~tileseek_iterations:30 Tf_arch.Presets.edge w Strategies.Transfusion in
  Alcotest.(check bool) "evaluates" true (r.Strategies.latency.Latency.total_s > 0.)

let test_non_pow2_seq () =
  (* Sequence lengths that are not powers of two still work (m0 falls
     back to a dividing factor). *)
  let w = Workload.v ~batch:2 tiny_model ~seq_len:(3 * 256) in
  let r, _ = Strategies.evaluate ~tileseek_iterations:30 Tf_arch.Presets.edge w Strategies.Fusemax in
  Alcotest.(check bool) "evaluates" true (Float.is_finite r.Strategies.latency.Latency.total_s)

let test_export_csv () =
  let csv =
    Tf_experiments.Export.csv ~columns:[ "a"; "b" ]
      ~rows:[ ("plain", [ 1.; 2.5 ]); ("with,comma", [ 3.; 4. ]) ]
  in
  Alcotest.(check bool) "header" true (String.length csv > 0 && String.sub csv 0 9 = "label,a,b");
  Alcotest.(check bool) "quoted comma" true
    (let lines = String.split_on_char '\n' csv in
     List.exists (fun l -> String.length l > 0 && l.[0] = '"') lines)

let test_export_roundtrip_file () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "tf_export_test/depth/x.csv" in
  Tf_json.write_file ~path "hello\n";
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Alcotest.(check string) "written" "hello" line

let test_bar_chart () =
  let chart =
    Tf_experiments.Export.bar_chart ~width:10 ~title:"t" [ ("x", 1.); ("y", 2.) ]
  in
  let lines = String.split_on_char '\n' chart in
  Alcotest.(check int) "three lines + trailing" 4 (List.length lines);
  Alcotest.(check bool) "max fills width" true
    (List.exists (fun l -> String.length l > 0 && String.contains l '#') lines);
  (* Degenerate all-zero input must not divide by zero. *)
  let flat = Tf_experiments.Export.bar_chart ~title:"z" [ ("a", 0.) ] in
  Alcotest.(check bool) "zero-safe" true (String.length flat > 0)

let test_selftest_battery () =
  let checks = Tf_experiments.Selftest.run ~quick:true () in
  Alcotest.(check bool) "non-empty" true (List.length checks >= 8);
  List.iter
    (fun (c : Tf_experiments.Selftest.check) ->
      Alcotest.(check bool) c.Tf_experiments.Selftest.name true c.Tf_experiments.Selftest.passed)
    checks

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "transfusion_robustness"
    [
      ( "robustness",
        [
          quick "model validation" test_model_validation;
          quick "degenerate workloads" test_degenerate_workloads;
          quick "starved buffer refuses" test_tiny_buffer_fallback;
          quick "single-tile sequence" test_seq_one_tile;
          quick "non-power-of-two sequence" test_non_pow2_seq;
        ] );
      ( "export",
        [
          quick "csv" test_export_csv;
          quick "write_file mkdir -p" test_export_roundtrip_file;
          quick "bar chart" test_bar_chart;
        ] );
      ("selftest", [ Alcotest.test_case "battery passes" `Slow test_selftest_battery ]);
    ]
