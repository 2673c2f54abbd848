(* Golden snapshot tests for the paper-figure experiments.

   Each figure (8-13) plus the Section 6.2 headline is computed on a
   deliberately tiny model over the quick sequence sweep, serialised
   through the deterministic Tf_json emitter, and compared
   field-by-field against the canonical document in test/golden/ with a
   relative float tolerance of 1e-6 (TileSeek is seeded, so the numbers
   are reproducible; the tolerance only absorbs FP-environment noise).

   Regenerating after an intentional cost-model change:

     GOLDEN_REGEN=1 dune runtest

   rewrites every test/golden/*.json in the source tree (the test then
   passes trivially); commit the diff alongside the change that caused
   it.  A missing golden file fails with the same instruction. *)

module E = Tf_experiments
module Model = Tf_workloads.Model
module Json = Tf_json

let tiny =
  Model.v ~name:"tiny" ~d_model:64 ~heads:2 ~head_dim:32 ~ffn_hidden:128 ~layers:2
    ~activation:Tf_einsum.Scalar_op.Gelu

let arch = Tf_arch.Presets.edge_32

(* Where the canonical documents live.  Reads go through the build copy
   declared in test/dune so `dune runtest` re-runs when a golden
   changes.  Regeneration must escape the build tree and write to the
   source tree: under `dune runtest` the cwd is _build/default/test
   (three levels below the root), while `dune exec test/test_golden.exe`
   runs from the project root — probe for test/golden to handle both. *)
let from_root = Sys.file_exists "test/golden"
let read_path name = Filename.concat (if from_root then "test/golden" else "golden") (name ^ ".json")
let source_path name =
  Filename.concat (if from_root then "test/golden" else "../../../test/golden") (name ^ ".json")

let regen = Sys.getenv_opt "GOLDEN_REGEN" <> None

let figures =
  [
    ("fig8", fun () -> E.Fig8_speedup.to_json (E.Fig8_speedup.scaling ~quick:true [ arch ] tiny));
    ("fig9", fun () -> E.Fig9_pe_size.to_json (E.Fig9_pe_size.scaling ~quick:true tiny));
    ( "fig10",
      fun () -> E.Fig10_utilization.to_json (E.Fig10_utilization.scaling ~quick:true arch tiny) );
    ( "fig11",
      fun () -> E.Fig11_contribution.to_json (E.Fig11_contribution.scaling ~quick:true [ arch ] tiny)
    );
    ("fig12", fun () -> E.Fig12_energy.to_json (E.Fig12_energy.scaling ~quick:true [ arch ] tiny));
    ( "fig13",
      fun () -> E.Fig13_breakdown.to_json (E.Fig13_breakdown.scaling ~quick:true [ arch ] tiny) );
    ("headline", fun () -> E.Headline.to_json (E.Headline.compute ~quick:true ~model:tiny arch));
  ]

let check_one name compute () =
  let doc = compute () in
  if regen then begin
    Json.write ~path:(source_path name) doc;
    Printf.printf "golden: regenerated %s\n" (source_path name)
  end
  else begin
    let golden =
      try Json.parse_file (read_path name)
      with Sys_error _ ->
        Alcotest.failf
          "golden file %s missing — regenerate with GOLDEN_REGEN=1 dune runtest and commit it"
          (read_path name)
    in
    let current = Json.parse (Json.to_string doc) in
    match Tjson.first_diff ~tol:1e-6 name golden current with
    | [] -> ()
    | diff :: _ ->
        Alcotest.failf
          "golden mismatch: %s\n(intentional cost-model change? GOLDEN_REGEN=1 dune runtest)"
          diff
  end

let () =
  Alcotest.run "tf_golden"
    [
      ( "figures",
        List.map
          (fun (name, compute) -> Alcotest.test_case name `Quick (check_one name compute))
          figures );
    ]
