(* Tests for the autoregressive generation layer: the Generation spec,
   Decode's closed-form aggregation, its Tf_obs instrumentation, and the
   exp_generation JSON export (the same document `transfusion decode
   --json` writes). *)

module Generation = Tf_workloads.Generation
module Model = Tf_workloads.Model
module Workload = Tf_workloads.Workload
module Decode = Transfusion.Decode
module Strategies = Transfusion.Strategies
module Tileseek = Transfusion.Tileseek
module Energy = Tf_costmodel.Energy

(* A deliberately tiny transformer so every evaluation is fast. *)
let tiny =
  Model.v ~name:"tiny" ~d_model:64 ~heads:2 ~head_dim:32 ~ffn_hidden:128 ~layers:2
    ~activation:Tf_einsum.Scalar_op.Gelu

let arch = Tf_arch.Presets.edge
let spec = Generation.v ~batch:2 ~gen:64 tiny ~prompt:256

let evaluate spec strategy = fst (Decode.evaluate ~tileseek_iterations:40 arch spec strategy)

(* ------------------------------------------------------------------ *)

let test_spec_validation () =
  let raises f =
    Alcotest.(check bool) "rejects" true (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  raises (fun () -> Generation.v tiny ~prompt:0);
  raises (fun () -> Generation.v ~gen:0 tiny ~prompt:16);
  raises (fun () -> Generation.v ~batch:0 tiny ~prompt:16);
  Alcotest.(check int) "kv_first" 256 (Generation.kv_first spec);
  Alcotest.(check int) "kv_last" 320 (Generation.kv_last spec);
  let pw = Generation.prefill_workload spec in
  Alcotest.(check int) "prefill seq" 256 pw.Workload.seq_len;
  let dw = Generation.decode_workload spec in
  Alcotest.(check int) "decode projects one position" 1 dw.Workload.seq_len;
  Alcotest.(check int) "sweep covers the paper's prompts"
    (List.length Workload.seq_labels)
    (List.length (Generation.sweep tiny))

let check_metrics_consistency (m : Decode.metrics) =
  let tol = Alcotest.float 1e-9 in
  Alcotest.(check bool) "ttft positive" true (m.Decode.ttft_s > 0.);
  Alcotest.(check bool) "per-token latencies positive" true
    (m.Decode.token_s_first > 0. && m.Decode.token_s_last > 0.);
  Alcotest.(check bool) "deeper cache is never cheaper" true
    (m.Decode.token_s_last >= m.Decode.token_s_first);
  let gen = float_of_int m.Decode.spec.Generation.gen in
  let batch = float_of_int m.Decode.spec.Generation.batch in
  Alcotest.check tol "trapezoid closed form" m.Decode.decode_s
    (gen *. (m.Decode.token_s_first +. m.Decode.token_s_last) /. 2.);
  Alcotest.check tol "total = ttft + decode" m.Decode.total_s
    (m.Decode.ttft_s +. m.Decode.decode_s);
  Alcotest.check tol "throughput inverts decode time" m.Decode.tokens_per_s
    (batch *. gen /. m.Decode.decode_s);
  Alcotest.check tol "energy per token" m.Decode.energy_per_token_pj
    (Energy.total_pj m.Decode.decode_energy /. (batch *. gen));
  Alcotest.check tol "total energy = prefill + decode" m.Decode.total_energy_pj
    (Energy.total_pj m.Decode.prefill.Strategies.energy
    +. Energy.total_pj m.Decode.decode_energy);
  (* The closed form is a trapezoid between the two endpoint costs. *)
  Alcotest.(check bool) "decode_s within endpoint bounds" true
    (m.Decode.decode_s >= gen *. m.Decode.token_s_first
    && m.Decode.decode_s <= gen *. m.Decode.token_s_last)

let test_metrics_consistency () =
  List.iter
    (fun strategy -> check_metrics_consistency (evaluate spec strategy))
    Strategies.all

let test_decode_tiling_divides_both_endpoints () =
  let m = evaluate spec Strategies.Transfusion in
  match m.Decode.decode_tiling with
  | None -> Alcotest.fail "TransFusion decode must carry a tiling"
  | Some c ->
      let slice = c.Tileseek.m1 * c.Tileseek.m0 in
      Alcotest.(check int) "divides the shallow cache" 0 (Generation.kv_first spec mod slice);
      Alcotest.(check int) "divides the deep cache" 0 (Generation.kv_last spec mod slice);
      (* Both endpoint evaluations ran under this exact tiling. *)
      Alcotest.(check bool) "first endpoint pinned" true
        (m.Decode.first.Strategies.tiling = Some c);
      Alcotest.(check bool) "last endpoint pinned" true
        (m.Decode.last.Strategies.tiling = Some c)

let test_longer_generation_costs_more () =
  let short = evaluate spec Strategies.Fusemax in
  let long = evaluate (Generation.v ~batch:2 ~gen:128 tiny ~prompt:256) Strategies.Fusemax in
  Alcotest.(check bool) "more tokens take longer" true
    (long.Decode.decode_s > short.Decode.decode_s);
  Alcotest.(check (float 1e-9)) "same prefill" short.Decode.ttft_s long.Decode.ttft_s;
  let deep = evaluate (Generation.v ~batch:2 ~gen:64 tiny ~prompt:512) Strategies.Fusemax in
  Alcotest.(check bool) "deeper prompt slows both phases" true
    (deep.Decode.ttft_s > short.Decode.ttft_s
    && deep.Decode.token_s_first >= short.Decode.token_s_first)

let test_obs_counters () =
  Tf_obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Tf_obs.set_enabled false) @@ fun () ->
  let before = Tf_obs.snapshot () in
  let get snap name = Option.value ~default:0 (Tf_obs.counter_value snap name) in
  ignore (evaluate spec Strategies.Fusemax : Decode.metrics);
  let after = Tf_obs.snapshot () in
  let delta name = get after name - get before name in
  Alcotest.(check int) "one evaluation" 1 (delta "decode.evaluations_total");
  Alcotest.(check int) "tokens = gen * batch" (64 * 2) (delta "decode.tokens_total");
  Alcotest.(check int) "searches saved = gen - 1" 63 (delta "decode.searches_saved_total")

(* ------------------------------------------------------------------ *)
(* The JSON export: parse what we emit (this is byte-for-byte the
   document the CLI's `decode --json FILE` writes) and check the
   documented transfusion.generation/1 schema. *)

let test_json_export () =
  let points =
    List.map
      (fun s -> Tf_experiments.Exp_generation.point ~tileseek_iterations:40 arch spec s)
      [ Strategies.Fusemax; Strategies.Transfusion ]
  in
  let doc = Tf_json.parse (Tf_json.to_string (Tf_experiments.Exp_generation.to_json points)) in
  Alcotest.(check string)
    "schema tag" Tf_experiments.Exp_generation.schema
    (Tf_json.get_string (Tf_json.member "schema" doc));
  let pts = Tf_json.get_list (Tf_json.member "points" doc) in
  Alcotest.(check int) "one object per point" 2 (List.length pts);
  List.iter
    (fun p ->
      List.iter
        (fun field -> ignore (Tf_json.get_float (Tf_json.member field p) : float))
        [
          "ttft_s";
          "token_s_first";
          "token_s_last";
          "decode_s";
          "total_s";
          "tokens_per_s";
          "energy_per_token_pj";
          "decode_energy_pj";
          "total_energy_pj";
        ];
      List.iter
        (fun field -> ignore (Tf_json.get_int (Tf_json.member field p) : int))
        [ "prompt"; "gen"; "batch" ];
      Alcotest.(check string) "model" "tiny" (Tf_json.get_string (Tf_json.member "model" p));
      Alcotest.(check string) "arch" "edge" (Tf_json.get_string (Tf_json.member "arch" p)))
    pts;
  (* The TransFusion point carries its decode tiling; FuseMax has null. *)
  let tiling_of p = Tf_json.member "decode_tiling" p in
  (match List.map tiling_of pts with
  | [ Tf_json.Null; Tf_json.Obj fields ] ->
      List.iter
        (fun k -> ignore (Tf_json.get_int (List.assoc k fields) : int))
        [ "b"; "d"; "p"; "m1"; "m0"; "s" ]
  | _ -> Alcotest.fail "expected [null; tiling object]");
  (* Round-trip stability: numbers re-parse within the emitter's
     precision. *)
  let m = (List.nth points 0).Tf_experiments.Exp_generation.metrics in
  let ttft = Tf_json.get_float (Tf_json.member "ttft_s" (List.nth pts 0)) in
  Alcotest.(check bool) "float precision survives" true
    (Float.abs (ttft -. m.Decode.ttft_s) <= 1e-9 *. Float.max 1. m.Decode.ttft_s)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "tf_generation"
    [
      ( "spec",
        [
          quick "validation and lowering" test_spec_validation;
        ] );
      ( "decode",
        [
          quick "metrics consistency (all strategies)" test_metrics_consistency;
          quick "decode tiling divides both endpoints" test_decode_tiling_divides_both_endpoints;
          quick "longer generations cost more" test_longer_generation_costs_more;
          quick "obs counters" test_obs_counters;
        ] );
      ( "export",
        [
          quick "generation JSON schema" test_json_export;
        ] );
    ]
