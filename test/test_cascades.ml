(* Tests for the paper's Einsum Cascades (1-4): structural checks against
   the paper's definitions, and numerical validation by interpreting the
   cascades on real tensors and comparing with the naive references. *)

module Nd = Tf_tensor.Nd
module Ops = Tf_tensor.Ops
module Interp = Tf_tensor.Cascade_interp
module Cascades = Transfusion.Cascades
open Tf_einsum

let rng seed = Random.State.make [| seed |]

(* Structure ------------------------------------------------------------ *)

let test_mha_structure () =
  let c = Cascades.mha () in
  (* Exactly the 12 Einsums of paper Cascade 1. *)
  Alcotest.(check (list string)) "op names"
    [ "BQK"; "LM"; "RM"; "SLN"; "SLD"; "SLNV"; "PRM"; "SPD"; "RD"; "SPNV"; "RNV"; "AV" ]
    (List.map (fun (o : Einsum.t) -> o.Einsum.name) (Cascade.ops c));
  Alcotest.(check (list string)) "externals"
    [ "BK"; "BV"; "Q"; "RD_prev"; "RM_prev"; "RNV_prev" ]
    (Cascade.external_inputs c);
  Alcotest.(check bool) "AV is a result" true (List.mem "AV" (Cascade.results c));
  Alcotest.(check bool) "acyclic" true (Tf_dag.Dag.is_acyclic (Cascade.to_dag c));
  Alcotest.(check bool) "every op in the MHA module" true
    (List.for_all (fun o -> Cascades.module_of o = Tf_costmodel.Phase.Mha) (Cascade.ops c))

let test_qkv_structure () =
  let c = Cascades.qkv () in
  Alcotest.(check int) "three projections" 3 (Cascade.length c);
  Alcotest.(check (list string)) "externals" [ "INPUT"; "INPUT_KV"; "WK"; "WQ"; "WV" ]
    (Cascade.external_inputs c);
  (* The three projections are independent: no edges. *)
  Alcotest.(check int) "no dependencies" 0 (Tf_dag.Dag.edge_count (Cascade.to_dag c))

let test_layernorm_structure () =
  let c = Cascades.add_layernorm () in
  Alcotest.(check int) "nine einsums" 9 (Cascade.length c);
  Alcotest.(check (list string)) "externals" [ "AV"; "INP"; "INV_HF" ] (Cascade.external_inputs c);
  Alcotest.(check (list string)) "result" [ "NR" ] (Cascade.results c)

let test_ffn_structure () =
  let c = Cascades.ffn Scalar_op.Relu in
  Alcotest.(check int) "five einsums" 5 (Cascade.length c);
  Alcotest.(check (list string)) "externals" [ "BF1"; "BF2"; "NR"; "WF1"; "WF2" ]
    (Cascade.external_inputs c);
  Alcotest.(check (list string)) "result" [ "FFN2B" ] (Cascade.results c)

let test_full_layer_structure () =
  let c = Cascades.full_layer Scalar_op.Silu in
  Alcotest.(check int) "3+12+9+5 einsums" 29 (Cascade.length c);
  Alcotest.(check bool) "acyclic" true (Tf_dag.Dag.is_acyclic (Cascade.to_dag c));
  (* The MHA consumes the QKV outputs, the FFN consumes NR: externals are
     only true layer inputs, weights, constants and recurrent state. *)
  Alcotest.(check (list string)) "externals"
    [ "BF1"; "BF2"; "INP"; "INPUT"; "INPUT_KV"; "INV_HF"; "RD_prev"; "RM_prev"; "RNV_prev"; "WF1"; "WF2"; "WK"; "WQ"; "WV" ]
    (Cascade.external_inputs c);
  Alcotest.(check (list string)) "final result" [ "FFN2B" ] (Cascade.results c)

(* Numerical validation -------------------------------------------------- *)

(* Interpret Cascade 1 tile by tile over the m1 loop, threading the
   running state, and compare the final AV with reference attention. *)
let run_mha_cascade ~h ~e ~f ~p ~m0 ~tiles state =
  let extents = Extents.of_list [ ("h", h); ("e", e); ("f", f); ("p", p); ("m0", m0) ] in
  let m = m0 * tiles in
  let q = Nd.random state [| h; e; p |] in
  let k = Nd.random state [| h; e; m |] in
  let v = Nd.random state [| h; f; m |] in
  let rm = ref (Nd.create [| h; p |] Float.neg_infinity) in
  let rd = ref (Nd.create [| h; p |] 0.) in
  let rnv = ref (Nd.create [| h; f; p |] 0.) in
  let av = ref (Nd.create [| h; f; p |] 0.) in
  for tile = 0 to tiles - 1 do
    let base = tile * m0 in
    let bk = Nd.init [| h; e; m0 |] (fun i -> Nd.get k [| i.(0); i.(1); base + i.(2) |]) in
    let bv = Nd.init [| h; f; m0 |] (fun i -> Nd.get v [| i.(0); i.(1); base + i.(2) |]) in
    let outputs =
      Interp.run extents (Cascades.mha ())
        ~inputs:
          [ ("Q", q); ("BK", bk); ("BV", bv); ("RM_prev", !rm); ("RD_prev", !rd); ("RNV_prev", !rnv) ]
    in
    rm := List.assoc "RM" outputs;
    rd := List.assoc "RD" outputs;
    rnv := List.assoc "RNV" outputs;
    av := List.assoc "AV" outputs
  done;
  (* Reference, head by head. *)
  let reference = Nd.create [| h; f; p |] 0. in
  for head = 0 to h - 1 do
    let qh = Nd.init [| p; e |] (fun i -> Nd.get q [| head; i.(1); i.(0) |]) in
    let kh = Nd.init [| m; e |] (fun i -> Nd.get k [| head; i.(1); i.(0) |]) in
    let vh = Nd.init [| m; f |] (fun i -> Nd.get v [| head; i.(1); i.(0) |]) in
    let out = Tf_tensor.Attention.reference ~q:qh ~k:kh ~v:vh () in
    for i = 0 to p - 1 do
      for j = 0 to f - 1 do
        Nd.set reference [| head; j; i |] (Nd.get out [| i; j |])
      done
    done
  done;
  (!av, reference)

let test_mha_cascade_numeric () =
  let av, reference = run_mha_cascade ~h:2 ~e:3 ~f:4 ~p:5 ~m0:2 ~tiles:3 (rng 11) in
  Alcotest.(check bool) "cascade 1 == reference attention" true
    (Nd.max_abs_diff av reference < 1e-10)

let test_mha_cascade_single_tile () =
  let av, reference = run_mha_cascade ~h:1 ~e:4 ~f:4 ~p:3 ~m0:6 ~tiles:1 (rng 12) in
  Alcotest.(check bool) "single tile" true (Nd.max_abs_diff av reference < 1e-10)

let prop_mha_cascade =
  QCheck.Test.make ~name:"Cascade 1 == reference attention (random shapes)" ~count:20
    QCheck.(quad (int_range 1 3) (int_range 1 4) (int_range 1 3) (int_range 0 1000))
    (fun (h, p, tiles, seed) ->
      let av, reference = run_mha_cascade ~h ~e:3 ~f:2 ~p ~m0:2 ~tiles (rng seed) in
      Nd.max_abs_diff av reference < 1e-9)

let test_qkv_cascade_numeric () =
  let d = 6 and h = 2 and e = 3 and f = 3 and p = 4 and m0 = 5 in
  let extents =
    Extents.of_list [ ("d", d); ("h", h); ("e", e); ("f", f); ("p", p); ("m0", m0) ]
  in
  let state = rng 21 in
  let input = Nd.random state [| d; p |] in
  let input_kv = Nd.random state [| d; m0 |] in
  let wq = Nd.random state [| d; h; e |] in
  let wk = Nd.random state [| d; h; e |] in
  let wv = Nd.random state [| d; h; f |] in
  let outputs =
    Interp.run extents (Cascades.qkv ())
      ~inputs:[ ("INPUT", input); ("INPUT_KV", input_kv); ("WQ", wq); ("WK", wk); ("WV", wv) ]
  in
  let q = List.assoc "Q" outputs in
  (* Check one projection against an explicit contraction. *)
  let worst = ref 0. in
  for hh = 0 to h - 1 do
    for ee = 0 to e - 1 do
      for pp = 0 to p - 1 do
        let acc = ref 0. in
        for dd = 0 to d - 1 do
          acc := !acc +. (Nd.get input [| dd; pp |] *. Nd.get wq [| dd; hh; ee |])
        done;
        worst := Float.max !worst (Float.abs (!acc -. Nd.get q [| hh; ee; pp |]))
      done
    done
  done;
  Alcotest.(check bool) "Q projection" true (!worst < 1e-12);
  Alcotest.(check (array int)) "BK shape" [| h; e; m0 |] (Nd.shape (List.assoc "BK" outputs));
  Alcotest.(check (array int)) "BV shape" [| h; f; m0 |] (Nd.shape (List.assoc "BV" outputs))

let test_layernorm_cascade_numeric () =
  let h = 2 and f = 4 and p = 3 in
  let extents = Extents.of_list [ ("h", h); ("f", f); ("p", p) ] in
  let state = rng 31 in
  let inp = Nd.random state [| h; f; p |] in
  let av = Nd.random state [| h; f; p |] in
  let inv_hf = Nd.scalar (1. /. float_of_int (h * f)) in
  let outputs =
    Interp.run extents (Cascades.add_layernorm ())
      ~inputs:[ ("INP", inp); ("AV", av); ("INV_HF", inv_hf) ]
  in
  let nr = List.assoc "NR" outputs in
  (* Reference: layernorm over the flattened (h, f) vector per token. *)
  let rows =
    Nd.init [| p; h * f |] (fun i ->
        let hh = i.(1) / f and ff = i.(1) mod f in
        Nd.get inp [| hh; ff; i.(0) |] +. Nd.get av [| hh; ff; i.(0) |])
  in
  let expected = Ops.layernorm_rows rows in
  let worst = ref 0. in
  for i = 0 to p - 1 do
    for j = 0 to (h * f) - 1 do
      let hh = j / f and ff = j mod f in
      worst := Float.max !worst (Float.abs (Nd.get expected [| i; j |] -. Nd.get nr [| hh; ff; i |]))
    done
  done;
  Alcotest.(check bool) "cascade 3 == reference layernorm" true (!worst < 1e-9)

let test_ffn_cascade_numeric () =
  let h = 2 and f = 3 and s = 5 and p = 4 in
  let extents = Extents.of_list [ ("h", h); ("f", f); ("s", s); ("p", p) ] in
  let state = rng 41 in
  let nr = Nd.random state [| h; f; p |] in
  let wf1 = Nd.random state [| h; f; s |] in
  let bf1 = Nd.random state [| s |] in
  let wf2 = Nd.random state [| h; f; s |] in
  let bf2 = Nd.random state [| h; f |] in
  let outputs =
    Interp.run extents (Cascades.ffn Scalar_op.Relu)
      ~inputs:[ ("NR", nr); ("WF1", wf1); ("BF1", bf1); ("WF2", wf2); ("BF2", bf2) ]
  in
  let ffn2b = List.assoc "FFN2B" outputs in
  (* Flattened reference through Ops. *)
  let x = Nd.init [| p; h * f |] (fun i -> Nd.get nr [| i.(1) / f; i.(1) mod f; i.(0) |]) in
  let w1 = Nd.init [| h * f; s |] (fun i -> Nd.get wf1 [| i.(0) / f; i.(0) mod f; i.(1) |]) in
  let w2t = Nd.init [| s; h * f |] (fun i -> Nd.get wf2 [| i.(1) / f; i.(1) mod f; i.(0) |]) in
  let hidden = Ops.activation Scalar_op.Relu (Ops.add_row_bias (Ops.matmul x w1) bf1) in
  let out = Ops.matmul hidden w2t in
  let worst = ref 0. in
  for i = 0 to p - 1 do
    for j = 0 to (h * f) - 1 do
      let hh = j / f and ff = j mod f in
      let expect = Nd.get out [| i; j |] +. Nd.get bf2 [| hh; ff |] in
      worst := Float.max !worst (Float.abs (expect -. Nd.get ffn2b [| hh; ff; i |]))
    done
  done;
  Alcotest.(check bool) "cascade 4 == reference ffn" true (!worst < 1e-9)

let test_final_only_ops () =
  (* The attention loop body is every MHA op but AV, which runs on the
     last iteration only; no op of another module is in the loop. *)
  List.iter
    (fun (o : Einsum.t) ->
      Alcotest.(check bool) o.Einsum.name
        (Cascades.module_of o = Tf_costmodel.Phase.Mha && o.Einsum.name <> "AV")
        (Cascades.in_attention_loop o))
    (Cascade.ops (Cascades.full_layer Scalar_op.Gelu))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "transfusion_cascades"
    [
      ( "structure",
        [
          quick "MHA (Cascade 1, 12 einsums)" test_mha_structure;
          quick "QKV (Cascade 2)" test_qkv_structure;
          quick "Add&LayerNorm (Cascade 3)" test_layernorm_structure;
          quick "FFN (Cascade 4)" test_ffn_structure;
          quick "full fused layer" test_full_layer_structure;
          quick "final-only ops" test_final_only_ops;
        ] );
      ( "numeric",
        [
          quick "MHA cascade across m1 tiles" test_mha_cascade_numeric;
          quick "MHA cascade single tile" test_mha_cascade_single_tile;
          quick "QKV cascade" test_qkv_cascade_numeric;
          quick "LayerNorm cascade" test_layernorm_cascade_numeric;
          quick "FFN cascade" test_ffn_cascade_numeric;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_mha_cascade ]);
    ]
