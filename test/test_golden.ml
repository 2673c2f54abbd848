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

(* Range certificates, pinned byte for byte: the certificate's numbers
   and expression trees are exact (%.17g), so no tolerance applies.  The
   bands cover a frozen self-attention tiling, the resident policy
   (m1 = n/m0) on masked attention, certified and refused, and a decode
   step with a multi-token query, on a cloud and an edge preset. *)
module RC = Tf_analysis.Range_cert

let cert_bands =
  let t5 = Tf_workloads.Presets.t5 and bert = Tf_workloads.Presets.bert in
  List.concat_map
    (fun arch ->
      let band label ?attention ?batch ?seq ?policy model lo hi =
        ( Printf.sprintf "%s/%s" arch.Tf_arch.Arch.name label,
          fun () ->
            RC.certify ?attention ?batch ?seq ?policy arch model { RC.lo; hi; step = lo } )
      in
      [
        band "T5/self/fixed" t5 512 16384;
        band "BERT/causal/resident/batch1" ~attention:RC.Causal ~batch:1 ~policy:RC.Resident bert
          256 1024;
        band "BERT/causal/resident" ~attention:RC.Causal ~policy:RC.Resident bert 4096 65536;
        band "T5/decode/fixed/seq4" ~attention:RC.Decode ~seq:4 t5 1024 16384;
      ])
    Tf_arch.Presets.[ cloud; edge ]

(* One certificate per line, keyed by band. *)
let certs_document () =
  "{\n"
  ^ String.concat ",\n"
      (List.map
         (fun (label, certify) ->
           Printf.sprintf "%S:%s" label (RC.to_json_string (certify ())))
         cert_bands)
  ^ "\n}\n"

let check_certs () =
  let doc = certs_document () in
  if regen then begin
    Out_channel.with_open_bin (source_path "cert") (fun oc -> output_string oc doc);
    Printf.printf "golden: regenerated %s\n" (source_path "cert")
  end
  else
    let golden =
      try In_channel.with_open_bin (read_path "cert") In_channel.input_all
      with Sys_error _ ->
        Alcotest.failf
          "golden file %s missing — regenerate with GOLDEN_REGEN=1 dune runtest and commit it"
          (read_path "cert")
    in
    if golden <> doc then
      let rec first_band = function
        | g :: gs, d :: ds when g = d -> first_band (gs, ds)
        | g :: _, _ -> List.hd (String.split_on_char ':' g)
        | [], _ -> "count"
      in
      Alcotest.failf
        "golden mismatch: cert.json differs in band %s\n\
         (intentional change? GOLDEN_REGEN=1 dune runtest)"
        (first_band (String.split_on_char '\n' golden, String.split_on_char '\n' doc))

let () =
  Alcotest.run "tf_golden"
    [
      ( "figures",
        List.map
          (fun (name, compute) -> Alcotest.test_case name `Quick (check_one name compute))
          figures );
      ("certificates", [ Alcotest.test_case "cert" `Quick check_certs ]);
    ]
