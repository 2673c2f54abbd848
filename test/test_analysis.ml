(* Tests for Tf_analysis: known-bad cascades, schedules and tilings must
   produce the documented diagnostic codes, and the shipped artifacts
   (Cascades 1-4, the encoder-preset DPipe schedule, TileSeek outputs)
   must lint clean. *)

module Diagnostic = Tf_analysis.Diagnostic
module Ir_lint = Tf_analysis.Ir_lint
module Sched_lint = Tf_analysis.Sched_lint
module Tiling_lint = Tf_analysis.Tiling_lint
module Verify = Tf_analysis.Verify
module Cascade = Tf_einsum.Cascade
module Einsum = Tf_einsum.Einsum
module Extents = Tf_einsum.Extents
module Tensor_ref = Tf_einsum.Tensor_ref
module Dpipe = Transfusion.Dpipe
module Tileseek = Transfusion.Tileseek
module Buffer_req = Transfusion.Buffer_req
open Tf_workloads

let t = Tensor_ref.v

let has code diags =
  Alcotest.(check bool)
    (Printf.sprintf "emits %s [%s]" code (String.concat " " (Diagnostic.codes diags)))
    true
    (Diagnostic.by_code code diags <> [])

let clean label diags =
  Alcotest.(check (list string)) (label ^ " lints clean") []
    (List.map Diagnostic.render (Diagnostic.errors diags))

(* ------------------------------------------------------------------ *)
(* IR lints *)

let test_shape_codes () =
  (* Z is produced at rank 2 and read back at rank 3. *)
  let rank_bad =
    Cascade.v ~name:"rank_bad"
      [
        Einsum.contraction (t "Z" [ "m"; "k" ]) [ t "A" [ "m"; "j" ]; t "B" [ "j"; "k" ] ];
        Einsum.contraction (t "Y" [ "m" ]) [ t "Z" [ "m"; "k"; "n" ]; t "C" [ "k"; "n" ] ];
      ]
  in
  has "E-TENSOR-RANK" (Ir_lint.lint rank_bad);
  (* Z's second dim is written under k (8) and read under n (16). *)
  let extent_bad =
    Cascade.v ~name:"extent_bad"
      [
        Einsum.contraction (t "Z" [ "m"; "k" ]) [ t "A" [ "m"; "j" ]; t "B" [ "j"; "k" ] ];
        Einsum.contraction (t "Y" [ "m" ]) [ t "Z" [ "m"; "n" ]; t "D" [ "n" ] ];
      ]
  in
  let extents = Extents.of_list [ ("m", 4); ("j", 2); ("k", 8); ("n", 16) ] in
  has "E-IDX-EXTENT" (Ir_lint.lint ~extents extent_bad);
  (* Same cascade under an environment that does not bind n at all. *)
  let partial = Extents.of_list [ ("m", 4); ("j", 2); ("k", 8) ] in
  has "E-IDX-UNBOUND" (Ir_lint.lint ~extents:partial extent_bad)

let test_liveness_codes () =
  let two_results =
    Cascade.v ~name:"two_results"
      [
        Einsum.contraction (t "T" [ "m"; "n" ]) [ t "A" [ "m"; "k" ]; t "B" [ "k"; "n" ] ];
        Einsum.contraction (t "U" [ "m"; "n" ]) [ t "A" [ "m"; "k" ]; t "C" [ "k"; "n" ] ];
      ]
  in
  (* Under its natural roots {T, U} nothing is dead... *)
  clean "two_results (natural roots)" (Ir_lint.lint two_results);
  (* ...but if the cascade exists only to produce T, the U branch is dead
     weight and C is an input read only by dead work. *)
  let diags = Ir_lint.lint ~roots:[ "T" ] two_results in
  has "W-DEAD-TENSOR" diags;
  has "W-UNUSED-INPUT" diags;
  (* Declared-input checking. *)
  has "E-INPUT-UNDECLARED" (Ir_lint.lint ~expected_inputs:[ "A" ] two_results);
  has "W-UNUSED-INPUT" (Ir_lint.lint ~expected_inputs:[ "A"; "B"; "C"; "Q" ] two_results);
  has "E-RESULT-MISSING" (Ir_lint.lint ~roots:[ "T"; "V" ] two_results)

let test_style_codes () =
  let degenerate =
    Cascade.v ~name:"degenerate"
      [ Einsum.contraction (t "Z" [ "m"; "n" ]) [ t "A" [ "m"; "n" ]; t "B" [ "m"; "n" ] ] ]
  in
  has "W-CONTRACT-DEGENERATE" (Ir_lint.lint degenerate);
  let shadow =
    Cascade.v ~name:"shadow"
      [ Einsum.contraction (t "m" [ "m"; "n" ]) [ t "A" [ "m"; "k" ]; t "B" [ "k"; "n" ] ] ]
  in
  has "W-NAME-SHADOW" (Ir_lint.lint shadow)

let test_op_list_codes () =
  (* These inputs would make Cascade.v raise, which is exactly why the
     op-list linter accepts a raw list. *)
  let zab = Einsum.contraction (t "Z" [ "m"; "n" ]) [ t "A" [ "m"; "k" ]; t "B" [ "k"; "n" ] ] in
  let use_before_def =
    [
      Einsum.contraction (t "Y" [ "m"; "n" ]) [ t "Z" [ "m"; "k" ]; t "C" [ "k"; "n" ] ];
      zab;
    ]
  in
  has "E-USE-BEFORE-DEF" (Ir_lint.lint_ops use_before_def);
  let dup_tensor =
    [ zab; Einsum.contraction ~name:"Z2" (t "Z" [ "m"; "n" ]) [ t "A" [ "m"; "k" ]; t "B" [ "k"; "n" ] ] ]
  in
  has "E-TENSOR-DUP" (Ir_lint.lint_ops dup_tensor);
  let dup_op =
    [ zab; Einsum.contraction ~name:"Z" (t "W" [ "m"; "n" ]) [ t "A" [ "m"; "k" ]; t "B" [ "k"; "n" ] ] ]
  in
  has "E-OP-DUP" (Ir_lint.lint_ops dup_op)

(* ------------------------------------------------------------------ *)
(* Schedule verifier *)

let arch = Tf_arch.Presets.cloud

(* The encoder preset: BERT's full layer (Cascade 4 + FFN). *)
let encoder_schedule () =
  let w = Workload.v Presets.bert ~seq_len:4096 in
  let { Transfusion.Layer_costs.load; matrix; dag = g; _ } =
    Transfusion.Strategies.layer_problem w
  in
  (g, Dpipe.schedule arch ~load ~matrix (Dpipe.plan g))

let test_schedule_clean () =
  let g, sched = encoder_schedule () in
  Alcotest.(check (list string)) "encoder schedule verifies" []
    (List.map Diagnostic.render (Sched_lint.verify g sched))

let test_schedule_codes () =
  let g, sched = encoder_schedule () in
  let verify s = Sched_lint.verify ~name:"corrupted" g s in
  has "E-SCHED-MAKESPAN" (verify { sched with Dpipe.makespan_cycles = sched.Dpipe.makespan_cycles +. 123. });
  has "E-SCHED-INTERVAL" (verify { sched with Dpipe.steady_interval_cycles = -5. });
  (* Dropping an instance leaves a hole in the unrolled window. *)
  has "E-SCHED-COUNT"
    (verify { sched with Dpipe.assignments = List.tl sched.Dpipe.assignments });
  (* Duplicating one doubles an instance and collides on its PE array. *)
  let dup =
    match List.find_opt (fun a -> a.Dpipe.end_cycle > a.Dpipe.start_cycle) sched.Dpipe.assignments with
    | Some a -> a
    | None -> Alcotest.fail "no assignment with positive duration"
  in
  let doubled = verify { sched with Dpipe.assignments = dup :: sched.Dpipe.assignments } in
  has "E-SCHED-COUNT" doubled;
  has "E-SCHED-OVERLAP" doubled;
  (* Reversing time keeps every instance disjoint and in range but turns
     every dependency edge around. *)
  let m = sched.Dpipe.makespan_cycles in
  let reversed =
    List.map
      (fun a -> { a with Dpipe.start_cycle = m -. a.Dpipe.end_cycle; end_cycle = m -. a.Dpipe.start_cycle })
      sched.Dpipe.assignments
  in
  has "E-SCHED-DEP" (verify { sched with Dpipe.assignments = reversed });
  has "E-SCHED-TIME"
    (verify
       { sched with
         Dpipe.assignments =
           List.map (fun a -> { a with Dpipe.start_cycle = a.Dpipe.start_cycle -. 1e9 }) sched.Dpipe.assignments;
       })

(* ------------------------------------------------------------------ *)
(* Tiling lints *)

let test_tiling_codes () =
  let w = Workload.v Presets.bert ~seq_len:4096 in
  let fallback = Tileseek.fallback arch w in
  clean "fallback tiling" (Tiling_lint.verify arch w fallback);
  (* 3 does not divide BERT's batch of 8. *)
  has "E-TILE-DIVIDE" (Tiling_lint.verify arch w { fallback with Tileseek.b = 3 });
  has "E-TILE-POSITIVE" (Tiling_lint.verify arch w { fallback with Tileseek.p = 0 });
  (* The whole sequence and model resident at once cannot fit on chip. *)
  let m = w.Workload.model in
  let huge =
    Buffer_req.of_workload w ~b:w.Workload.batch ~d:m.Model.d_model ~p:w.Workload.seq_len ~m1:1
      ~m0:w.Workload.seq_len ~s:m.Model.ffn_hidden
      ~p_row:(Int.max 1 (w.Workload.seq_len / Tf_arch.Pe_array.rows arch.Tf_arch.Arch.pe_2d))
  in
  has "E-TILE-BUFFER" (Tiling_lint.verify_dims arch w huge);
  (* A p_row that disagrees with the 2D geometry. *)
  let dims = Tileseek.dims arch w fallback in
  has "E-TILE-PROW" (Tiling_lint.verify_dims arch w { dims with Buffer_req.p_row = dims.Buffer_req.p_row + 7 });
  has "E-TILE-MODEL" (Tiling_lint.verify_dims arch w { dims with Buffer_req.h = dims.Buffer_req.h + 1 })

(* A verified result's diagnostics name its attention flavour the way
   explain prints it. *)
let test_strategy_result_names_flavour () =
  let module S = Transfusion.Strategies in
  let w = Workload.v Presets.bert ~seq_len:4096 in
  let attention = S.Cross { kv_len = 4096 } in
  let fallback = Tileseek.fallback arch w in
  let r, execution = S.evaluate ~tiling:fallback ~attention arch w S.Transfusion in
  (* 3 does not divide BERT's batch of 8. *)
  let bad = { r with S.tiling = Some { fallback with Tileseek.b = 3 } } in
  match Diagnostic.by_code "E-TILE-DIVIDE" (Verify.strategy_result (bad, execution)) with
  | [] -> Alcotest.fail "expected E-TILE-DIVIDE"
  | d :: _ ->
      Alcotest.(check (option string)) "context" (Some "tiling(cloud/BERT/4096/cross(kv=4096))")
        d.Diagnostic.location.Diagnostic.context

(* ------------------------------------------------------------------ *)
(* Clean passes over the shipped artifacts *)

let test_builtins_clean () =
  let w = Workload.v Presets.bert ~seq_len:4096 in
  let extents =
    Transfusion.Layer_costs.tile_extents w ~m0:(Extents.find (Workload.extents w) "m0")
  in
  List.iter
    (fun (name, cascade) -> clean name (Ir_lint.lint ~extents cascade))
    [
      ("cascade 1 (qkv)", Transfusion.Cascades.qkv ());
      ("cascade 2 (mha)", Transfusion.Cascades.mha ());
      ("cascade 3 (add_layernorm)", Transfusion.Cascades.add_layernorm ());
      ("cascade 4 (ffn)", Transfusion.Cascades.ffn Tf_einsum.Scalar_op.Gelu);
      ("full layer", Transfusion.Cascades.full_layer Tf_einsum.Scalar_op.Gelu);
    ];
  clean "lint_builtins" (Verify.lint_builtins ())

let test_pipeline_clean () =
  let w = Workload.v Presets.bert ~seq_len:4096 in
  clean "encoder pipeline (self)" (Verify.pipeline ~attention:Transfusion.Strategies.Self arch w);
  clean "decoder pipeline (causal)"
    (Verify.pipeline ~attention:Transfusion.Strategies.Causal_self arch w)

let test_verified_schedule_hook () =
  (* The opt-in Dpipe debug hook must accept its own output, and so
     must the schedule verifier. *)
  let w = Workload.v Presets.bert ~seq_len:4096 in
  let { Transfusion.Layer_costs.load; matrix; dag = g; _ } =
    Transfusion.Layer_costs.problem w (Transfusion.Cascades.mha ())
  in
  let sched = Dpipe.schedule ~verify:true arch ~load ~matrix (Dpipe.plan g) in
  clean "verified schedule" (Sched_lint.verify g sched)

let test_distinct_code_count () =
  (* The acceptance bar: the known-bad inputs above cover well over six
     distinct codes.  Count them in one sweep so a regression in any
     checker fails loudly. *)
  let w = Workload.v Presets.bert ~seq_len:4096 in
  let extent_bad =
    Cascade.v
      [
        Einsum.contraction (t "Z" [ "m"; "k" ]) [ t "A" [ "m"; "j" ]; t "B" [ "j"; "k" ] ];
        Einsum.contraction (t "Y" [ "m" ]) [ t "Z" [ "m"; "n" ]; t "D" [ "n" ] ];
      ]
  in
  let extents = Extents.of_list [ ("m", 4); ("j", 2); ("k", 8) ] in
  let g, sched = encoder_schedule () in
  let all =
    Ir_lint.lint ~extents ~roots:[ "Y"; "V" ] extent_bad
    @ Sched_lint.verify g { sched with Dpipe.makespan_cycles = -1. }
    @ Tiling_lint.verify arch w { (Tileseek.fallback arch w) with Tileseek.b = 3 }
  in
  let n = List.length (Diagnostic.codes all) in
  Alcotest.(check bool)
    (Printf.sprintf "at least 6 distinct codes (got %d: %s)" n
       (String.concat " " (Diagnostic.codes all)))
    true (n >= 6)

(* ------------------------------------------------------------------ *)
(* Verify.pipeline re-derivation *)

let counter name = Option.value ~default:0 (Tf_obs.counter_value (Tf_obs.snapshot ()) name)

let with_metrics f =
  Tf_obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Tf_obs.set_enabled false) f

let test_pipeline_keyed_by_arch_parameters () =
  (* Regression: a memo keyed archs by name and two efficiencies, so an
     arch sharing a preset's name but not its PE counts was answered with
     the preset's cached diagnostics instead of scheduling its own DAG. *)
  with_metrics @@ fun () ->
  let base = Tf_arch.Presets.edge in
  let open Tf_arch in
  let variant =
    Arch.v ~name:base.Arch.name ~clock_hz:base.Arch.clock_hz ~element_bytes:base.Arch.element_bytes
      ~vector_eff_2d:base.Arch.vector_eff_2d ~matrix_eff_1d:base.Arch.matrix_eff_1d
      ~energy:base.Arch.energy
      ~pe_2d:(Pe_array.two_d (2 * Pe_array.rows base.Arch.pe_2d) (Pe_array.cols base.Arch.pe_2d))
      ~pe_1d:base.Arch.pe_1d ~buffer_bytes:base.Arch.buffer_bytes
      ~dram_bw_bytes_per_s:base.Arch.dram_bw_bytes_per_s ()
  in
  let w = Workload.v ~batch:3 Tf_workloads.Presets.xlm ~seq_len:2048 in
  let schedules () = counter "dpipe.schedules_total" in
  let runs f =
    let before = schedules () in
    let diags = f () in
    (schedules () - before, diags)
  in
  let n_base, d_base = runs (fun () -> Verify.pipeline base w) in
  let n_variant, d_variant = runs (fun () -> Verify.pipeline variant w) in
  Alcotest.(check int) "base schedules once" 1 n_base;
  Alcotest.(check int) "same name, more PEs: scheduled, not shared" 1 n_variant;
  clean "base" d_base;
  clean "variant" d_variant

let test_pipeline_from_several_domains () =
  (* Several domains verify at once, as sweep workers do through
     Exp_common.evaluate: every copy of a key sees the same diagnostics. *)
  Tf_parallel.set_jobs 4;
  Fun.protect ~finally:Tf_parallel.clear_jobs_override @@ fun () ->
  let keys =
    [|
      (Tf_arch.Presets.cloud, Workload.v ~batch:5 Presets.bert ~seq_len:1024);
      (Tf_arch.Presets.edge, Workload.v ~batch:5 Presets.t5 ~seq_len:1024);
      (Tf_arch.Presets.cloud, Workload.v ~batch:5 Presets.trxl ~seq_len:2048);
    |]
  in
  let tasks = Array.init 12 (fun i -> i mod Array.length keys) in
  let diags = Tf_parallel.map ~chunk:1 (fun k -> Verify.pipeline (fst keys.(k)) (snd keys.(k))) tasks in
  Array.iteri
    (fun i d ->
      clean (Printf.sprintf "task %d" i) d;
      Alcotest.(check bool) "copies agree" true (d = diags.(tasks.(i))))
    diags

(* ------------------------------------------------------------------ *)
(* Verify.strategy_result checks the execution it is given *)

module S = Transfusion.Strategies

let with_schedule (run : S.scheduled) f =
  { run with S.schedule = lazy (f (Lazy.force run.S.schedule)) }

let test_verify_schedules_nothing () =
  (* The result's execution carries the schedules Strategies priced, so
     verifying a fresh result runs no DPipe of its own. *)
  with_metrics @@ fun () ->
  Tf_experiments.Exp_common.reset_cache ();
  let w = Workload.v ~batch:2 Presets.bert ~seq_len:2048 in
  let evaluated = S.evaluate ~tileseek_iterations:20 arch w S.Transfusion in
  let before = counter "dpipe.schedules_total" in
  let diags = Verify.strategy_result evaluated in
  Alcotest.(check int) "verification schedules nothing" 0
    (counter "dpipe.schedules_total" - before);
  clean "fresh result" diags

let test_corrupt_dpipe_schedule () =
  let w = Workload.v Presets.bert ~seq_len:4096 in
  let r, e, _ = S.search ~iterations:60 ~seed:42 arch w in
  Alcotest.(check bool) "DPipe is served" true (e.S.layer.S.served = `Dpipe);
  clean "served DPipe execution" (Verify.strategy_result (r, Some e));
  let corrupt s = { s with Dpipe.makespan_cycles = s.Dpipe.makespan_cycles +. 123. } in
  has "E-SCHED-MAKESPAN"
    (Verify.strategy_result (r, Some { e with S.dpipe = with_schedule e.S.dpipe corrupt }))

(* edge_32/TrXL/65536 serves the static alternative: sequential modules
   around FuseMax-pinned attention, whose schedule is checked too. *)
let static_served =
  lazy
    (S.search ~iterations:60 ~seed:42 Tf_arch.Presets.edge_32
       (Workload.v Presets.trxl ~seq_len:65536))

let pinned_mha (e : S.execution) =
  match e.S.static_mha with
  | Some run -> run
  | None -> Alcotest.fail "static is served, so the pinned MHA schedule is part of the execution"

let test_corrupt_pinned_mha () =
  let r, e, _ = Lazy.force static_served in
  Alcotest.(check bool) "static is served" true (e.S.layer.S.served = `Static);
  clean "served static execution" (Verify.strategy_result (r, Some e));
  let drop s = { s with Dpipe.assignments = List.tl s.Dpipe.assignments } in
  has "E-SCHED-COUNT"
    (Verify.strategy_result
       (r, Some { e with S.static_mha = Some (with_schedule (pinned_mha e) drop) }))

let test_mha_instance_off_its_array () =
  let r, e, _ = Lazy.force static_served in
  let move s =
    match s.Dpipe.assignments with
    | a :: rest ->
        let other =
          match a.Dpipe.resource with Tf_arch.Arch.Pe_2d -> Tf_arch.Arch.Pe_1d | Pe_1d -> Pe_2d
        in
        { s with Dpipe.assignments = { a with Dpipe.resource = other } :: rest }
    | [] -> Alcotest.fail "empty MHA schedule"
  in
  has "E-SCHED-PIN"
    (Verify.strategy_result
       (r, Some { e with S.static_mha = Some (with_schedule (pinned_mha e) move) }))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "tf_analysis"
    [
      ( "ir_lint",
        [
          quick "shape and extent codes" test_shape_codes;
          quick "liveness codes" test_liveness_codes;
          quick "style codes" test_style_codes;
          quick "op-list codes" test_op_list_codes;
        ] );
      ( "sched_lint",
        [
          quick "encoder schedule clean" test_schedule_clean;
          quick "corruption codes" test_schedule_codes;
          quick "schedule verify hook" test_verified_schedule_hook;
        ] );
      ( "tiling_lint",
        [
          quick "tiling codes" test_tiling_codes;
          quick "strategy result names the flavour" test_strategy_result_names_flavour;
        ] );
      ( "clean_pass",
        [
          quick "built-in cascades" test_builtins_clean;
          quick "pipelines" test_pipeline_clean;
          quick "distinct code count" test_distinct_code_count;
        ] );
      ( "verify_pipeline",
        [
          quick "keyed by arch parameters" test_pipeline_keyed_by_arch_parameters;
          quick "several domains" test_pipeline_from_several_domains;
        ] );
      ( "verify_result",
        [
          quick "verification schedules nothing" test_verify_schedules_nothing;
          quick "corrupt DPipe schedule" test_corrupt_dpipe_schedule;
          quick "corrupt pinned MHA schedule" test_corrupt_pinned_mha;
          quick "MHA instance off its pinned array" test_mha_instance_off_its_array;
        ] );
    ]
