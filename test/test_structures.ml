(* Tests for encoder/decoder composition and the attention-flavour
   plumbing (causal and cross-attention cost accounting). *)

module Strategies = Transfusion.Strategies
module Structures = Transfusion.Structures
module Layer_costs = Transfusion.Layer_costs
module Latency = Tf_costmodel.Latency
open Tf_workloads

let edge = Tf_arch.Presets.edge
let t5_4k = Workload.v Tf_workloads.Presets.t5 ~seq_len:4096

(* Layer_costs flavour accounting --------------------------------------- *)

let loads ?kv_len ?causal cascade =
  Layer_costs.loads (Layer_costs.op_totals ~m0:256 ?kv_len ?causal t5_4k cascade)

let mha = Transfusion.Cascades.mha ()

let test_causal_halves_attention () =
  let full = loads mha in
  let causal = loads ~causal:true mha in
  (* The matrix work of attention halves exactly (both matmuls are
     loop-body work). *)
  Alcotest.(check (float 1.)) "matrix halves" (full.Layer_costs.matrix /. 2.)
    causal.Layer_costs.matrix;
  Alcotest.(check bool) "vector reduced" true
    (causal.Layer_costs.vector < full.Layer_costs.vector)

let test_cross_scales_with_kv () =
  let self = loads mha in
  let double = loads ~kv_len:8192 mha in
  Alcotest.(check (float 1.)) "matrix doubles with kv length"
    (2. *. self.Layer_costs.matrix) double.Layer_costs.matrix;
  let qkv_self = loads (Transfusion.Cascades.qkv ()) in
  let qkv_double = loads ~kv_len:8192 (Transfusion.Cascades.qkv ()) in
  Alcotest.(check bool) "k/v projections grow" true
    (qkv_double.Layer_costs.matrix > qkv_self.Layer_costs.matrix)

let test_include_ffn () =
  let layer include_ffn =
    Transfusion.Cascades.full_layer ~include_ffn t5_4k.Workload.model.Model.activation
  in
  let with_ffn = loads (layer true) in
  let without = loads (layer false) in
  let ffn = loads (Transfusion.Cascades.ffn t5_4k.Workload.model.Model.activation) in
  Alcotest.(check (float 1.)) "difference is the ffn" ffn.Layer_costs.matrix
    (with_ffn.Layer_costs.matrix -. without.Layer_costs.matrix)

(* Strategy-level flavours ----------------------------------------------- *)

let eval ?attention strategy =
  fst (Strategies.evaluate ~tileseek_iterations:40 ?attention edge t5_4k strategy)

let test_causal_faster () =
  List.iter
    (fun strategy ->
      let self = eval strategy in
      let causal = eval ~attention:Strategies.Causal_self strategy in
      Alcotest.(check bool)
        (Strategies.name strategy ^ ": causal is cheaper")
        true
        (causal.Strategies.latency.Latency.total_s < self.Strategies.latency.Latency.total_s))
    [ Strategies.Unfused; Strategies.Fusemax; Strategies.Transfusion ]

let test_cross_attention_kv_cost () =
  let short = eval ~attention:(Strategies.Cross { kv_len = 1024 }) Strategies.Fusemax in
  let long = eval ~attention:(Strategies.Cross { kv_len = 16384 }) Strategies.Fusemax in
  Alcotest.(check bool) "longer encoder context costs more" true
    (long.Strategies.latency.Latency.total_s > short.Strategies.latency.Latency.total_s)

(* Structures ------------------------------------------------------------- *)

let test_structure_builders () =
  let m = Tf_workloads.Presets.t5 in
  let enc = Structures.encoder m in
  Alcotest.(check int) "encoder layers" m.Model.layers enc.Structures.layers;
  Alcotest.(check int) "encoder sublayers" 1 (List.length enc.Structures.sublayers);
  let dec = Structures.decoder ~encoder_len:4096 m in
  Alcotest.(check int) "decoder sublayers" 2 (List.length dec.Structures.sublayers);
  (match dec.Structures.sublayers with
  | [ first; second ] ->
      Alcotest.(check bool) "first is masked self without ffn" true
        (first.Structures.attention = Strategies.Causal_self && not first.Structures.include_ffn);
      Alcotest.(check bool) "second is cross with ffn" true
        (second.Structures.attention = Strategies.Cross { kv_len = 4096 }
        && second.Structures.include_ffn)
  | _ -> Alcotest.fail "unexpected decoder shape");
  Alcotest.(check int) "enc-dec pair" 2
    (List.length (Structures.encoder_decoder m ~seq_len:4096));
  let shallow = Structures.decoder_only ~layers:2 m in
  Alcotest.(check int) "layer override" 2 shallow.Structures.layers

let test_structure_evaluation () =
  let m = Tf_workloads.Presets.t5 in
  let strategy = Strategies.Fusemax in
  let enc =
    Structures.evaluate ~tileseek_iterations:40 edge t5_4k (Structures.encoder m) strategy
  in
  let dec_only =
    Structures.evaluate ~tileseek_iterations:40 edge t5_4k (Structures.decoder_only m) strategy
  in
  (* The causal stack must cost less than the encoder stack. *)
  Alcotest.(check bool) "decoder-only cheaper than encoder" true
    (dec_only.Structures.latency.Latency.total_s < enc.Structures.latency.Latency.total_s);
  (* An encoder-decoder pair costs more than either half. *)
  let pair =
    List.map
      (fun s -> Structures.evaluate ~tileseek_iterations:40 edge t5_4k s strategy)
      (Structures.encoder_decoder m ~seq_len:4096)
  in
  let pair_total = Structures.total_seconds pair in
  Alcotest.(check bool) "pair exceeds the encoder" true
    (pair_total > enc.Structures.latency.Latency.total_s);
  let pair_energy =
    List.fold_left (fun acc r -> acc +. Tf_costmodel.Energy.total_pj r.Structures.energy) 0. pair
  in
  Alcotest.(check bool) "pair energy positive" true (pair_energy > 0.)

let test_structure_strategy_ordering () =
  let m = Tf_workloads.Presets.t5 in
  let structure = Structures.decoder_only m in
  let total strategy =
    (Structures.evaluate ~tileseek_iterations:40 edge t5_4k structure strategy)
      .Structures.latency.Latency.total_s
  in
  Alcotest.(check bool) "TF fastest on the decoder too" true
    (total Strategies.Transfusion <= total Strategies.Fusemax *. 1.01
    && total Strategies.Fusemax <= total Strategies.Unfused *. 1.01)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "transfusion_structures"
    [
      ( "layer_costs flavours",
        [
          quick "causal halves attention" test_causal_halves_attention;
          quick "cross scales with kv length" test_cross_scales_with_kv;
          quick "ffn toggling" test_include_ffn;
        ] );
      ( "strategy flavours",
        [
          quick "causal is cheaper" test_causal_faster;
          quick "cross kv cost" test_cross_attention_kv_cost;
        ] );
      ( "structures",
        [
          quick "builders" test_structure_builders;
          quick "evaluation" test_structure_evaluation;
          quick "strategy ordering" test_structure_strategy_ordering;
        ] );
    ]
