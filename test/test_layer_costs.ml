(* Tests for the whole-layer load accounting: the per-operation totals
   that every figure rests on, checked against closed-form expectations
   derived from Eq. 40 and the instance-count rules. *)

module Layer_costs = Transfusion.Layer_costs
module Cascades = Transfusion.Cascades
open Tf_workloads

let model =
  Model.v ~name:"lc" ~d_model:64 ~heads:4 ~head_dim:16 ~ffn_hidden:128 ~layers:2
    ~activation:Tf_einsum.Scalar_op.Relu

let w = Workload.v ~batch:2 model ~seq_len:1024
let fi = float_of_int

(* A cascade's matrix/vector loads: its op table, summed. *)
let loads ?m0 ?kv_len ?causal w cascade =
  Layer_costs.loads (Layer_costs.op_totals ?m0 ?kv_len ?causal w cascade)

let totals_by_name ?m0 ?kv_len ?causal cascade =
  List.map
    (fun (ot : Layer_costs.op_total) -> (ot.Layer_costs.op.Tf_einsum.Einsum.name, ot))
    (Layer_costs.op_totals ?m0 ?kv_len ?causal w cascade)

let test_bqk_total () =
  (* BQK load = B * H * N^2 * E, independent of m0. *)
  let expected = fi 2 *. fi 4 *. fi 1024 *. fi 1024 *. fi 16 in
  List.iter
    (fun m0 ->
      let t = List.assoc "BQK" (totals_by_name ~m0 (Cascades.mha ())) in
      Alcotest.(check (float 1.)) (Printf.sprintf "BQK total (m0=%d)" m0) expected
        t.Layer_costs.total)
    [ 64; 256; 1024 ]

let test_state_updates_scale_with_tiles () =
  (* RM runs once per key/value tile: total = B * H * N * (N/m0). *)
  let check m0 =
    let t = List.assoc "RM" (totals_by_name ~m0 (Cascades.mha ())) in
    let expected = fi 2 *. fi 4 *. fi 1024 *. (fi 1024 /. fi m0) in
    Alcotest.(check (float 1.)) (Printf.sprintf "RM total (m0=%d)" m0) expected t.Layer_costs.total
  in
  check 64;
  check 256

let test_av_final_only () =
  (* AV runs once per sequence pass, not per key/value tile: its total is
     m0-independent and carries the div cost factor 2. *)
  let total m0 = (List.assoc "AV" (totals_by_name ~m0 (Cascades.mha ()))).Layer_costs.total in
  Alcotest.(check (float 1e-6)) "m0-independent" (total 64) (total 256);
  let expected = fi 2 *. fi 4 *. fi 16 *. fi 1024 *. 2. in
  Alcotest.(check (float 1.)) "B*H*F*N x cost(div)" expected (total 256)

let test_qkv_totals () =
  (* Each projection moves B * N * D^2 multiply-accumulate slots. *)
  let expected = fi 2 *. fi 1024 *. fi 64 *. fi 64 in
  List.iter
    (fun name ->
      let t = List.assoc name (totals_by_name ~m0:256 (Cascades.qkv ())) in
      Alcotest.(check (float 1.)) name expected t.Layer_costs.total)
    [ "Q"; "BK"; "BV" ]

let test_ffn_totals () =
  let by_name = totals_by_name (Cascades.ffn Tf_einsum.Scalar_op.Relu) in
  let expected_mm = fi 2 *. fi 1024 *. fi 64 *. fi 128 in
  Alcotest.(check (float 1.)) "FFN1" expected_mm (List.assoc "FFN1" by_name).Layer_costs.total;
  Alcotest.(check (float 1.)) "FFN2" expected_mm (List.assoc "FFN2" by_name).Layer_costs.total;
  (* ReLU costs one slot per hidden element. *)
  Alcotest.(check (float 1.)) "AR" (fi 2 *. fi 1024 *. fi 128)
    (List.assoc "AR" by_name).Layer_costs.total

let test_layernorm_totals () =
  (* The 9-op cascade touches each of the B*N*D activations a small
     constant number of times; rsqrt is per token. *)
  let loads = loads w (Cascades.add_layernorm ()) in
  let bnd = fi 2 *. fi 1024 *. fi 64 in
  Alcotest.(check (float 0.)) "no matrix work" 0. loads.Layer_costs.matrix;
  Alcotest.(check bool) "vector work is a few passes over B*N*D" true
    (loads.Layer_costs.vector > 5. *. bnd && loads.Layer_costs.vector < 12. *. bnd)

let test_total_additive () =
  let total = loads ~m0:256 w (Cascades.full_layer model.Model.activation) in
  let parts =
    List.map (loads ~m0:256 w)
      Cascades.[ qkv (); mha (); add_layernorm (); ffn model.Model.activation ]
  in
  let sum =
    List.fold_left Layer_costs.add_loads Layer_costs.zero parts
  in
  Alcotest.(check (float 1e-3)) "matrix sums" sum.Layer_costs.matrix total.Layer_costs.matrix;
  Alcotest.(check (float 1e-3)) "vector sums" sum.Layer_costs.vector total.Layer_costs.vector

let test_validation () =
  Alcotest.(check bool) "m0 must divide" true
    (try ignore (Layer_costs.op_totals ~m0:3000 w (Cascades.mha ())); false
     with Invalid_argument _ -> true)

let prop_batch_linearity =
  QCheck.Test.make ~name:"totals are linear in batch size" ~count:30
    QCheck.(int_range 1 16)
    (fun b ->
      let w1 = Workload.v ~batch:1 model ~seq_len:256 in
      let wb = Workload.v ~batch:b model ~seq_len:256 in
      let layer = Cascades.full_layer model.Model.activation in
      let l1 = loads ~m0:64 w1 layer and lb = loads ~m0:64 wb layer in
      Float.abs (lb.Layer_costs.matrix -. (fi b *. l1.Layer_costs.matrix)) < 1.
      && Float.abs (lb.Layer_costs.vector -. (fi b *. l1.Layer_costs.vector)) < 1.)

let prop_causal_halves_matrix =
  QCheck.Test.make ~name:"causal exactly halves attention matrix work" ~count:20
    QCheck.(int_range 0 3)
    (fun shift ->
      let m0 = 64 lsl shift in
      let full = loads ~m0 w (Cascades.mha ()) in
      let causal = loads ~m0 ~causal:true w (Cascades.mha ()) in
      Float.abs ((2. *. causal.Layer_costs.matrix) -. full.Layer_costs.matrix) < 1.)

let prop_kv_len_scaling =
  QCheck.Test.make ~name:"attention matrix work is linear in kv length" ~count:20
    QCheck.(int_range 1 4)
    (fun k ->
      let kv_len = 256 * k in
      let base = loads ~m0:64 ~kv_len:256 w (Cascades.mha ()) in
      let scaled = loads ~m0:64 ~kv_len w (Cascades.mha ()) in
      Float.abs (scaled.Layer_costs.matrix -. (fi k *. base.Layer_costs.matrix)) < 1.)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "transfusion_layer_costs"
    [
      ( "layer_costs",
        [
          quick "BQK closed form" test_bqk_total;
          quick "state updates per tile" test_state_updates_scale_with_tiles;
          quick "AV final-only" test_av_final_only;
          quick "QKV projections" test_qkv_totals;
          quick "FFN matmuls and activation" test_ffn_totals;
          quick "LayerNorm passes" test_layernorm_totals;
          quick "module totals additive" test_total_additive;
          quick "validation" test_validation;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_batch_linearity; prop_causal_halves_matrix; prop_kv_len_scaling ] );
    ]
