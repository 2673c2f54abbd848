(* Quickstart: evaluate TransFusion against its strongest baseline on one
   workload, and check the fused dataflow computes the right numbers.

   Run with:  dune exec examples/quickstart.exe *)

module Strategies = Transfusion.Strategies
module Latency = Tf_costmodel.Latency

let () =
  (* 1. Pick an architecture and a workload (paper Table 3 / Section 6.1). *)
  let arch = Tf_arch.Presets.cloud in
  let workload = Tf_workloads.Workload.v Tf_workloads.Presets.bert ~seq_len:16384 in
  Fmt.pr "architecture: %a@." Tf_arch.Arch.pp arch;
  Fmt.pr "workload    : %a@.@." Tf_workloads.Workload.pp workload;

  (* 2. Evaluate the schedulers through the shared cost model. *)
  let fusemax, _ = Strategies.evaluate arch workload Strategies.Fusemax in
  let transfusion, _ = Strategies.evaluate arch workload Strategies.Transfusion in
  Fmt.pr "FuseMax     : %.4e s@." fusemax.Strategies.latency.Latency.total_s;
  Fmt.pr "TransFusion : %.4e s (%.2fx speedup)@." transfusion.Strategies.latency.Latency.total_s
    (Strategies.speedup ~baseline:fusemax transfusion);
  (match transfusion.Strategies.tiling with
  | Some c ->
      Fmt.pr "TileSeek tiling: %a@.@." Transfusion.Tileseek.pp_config c
  | None -> ());

  (* 3. Sanity: the fused dataflow (1-pass attention, tiled FFN) computes
     the same result as the naive reference on real numbers. *)
  let rng = Random.State.make [| 7 |] in
  let d_model = 32 and heads = 4 and ffn_hidden = 64 and p = 16 in
  let weights = Tf_tensor.Transformer.random_weights rng ~d_model ~ffn_hidden in
  let x = Tf_tensor.Nd.random rng [| p; d_model |] in
  let reference =
    Tf_tensor.Transformer.reference ~heads ~activation:Tf_einsum.Scalar_op.Gelu weights x
  in
  let fused =
    Tf_tensor.Transformer.fused_tiled ~heads ~activation:Tf_einsum.Scalar_op.Gelu ~tile_p:4
      ~tile_m0:8 ~tile_s:16 weights x
  in
  Fmt.pr "fused vs reference transformer layer: max |diff| = %.2e@."
    (Tf_tensor.Nd.max_abs_diff reference fused)
