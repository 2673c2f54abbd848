open Tf_einsum
open Tf_workloads
module Phase = Tf_costmodel.Phase

type loads = { matrix : float; vector : float }

let zero = { matrix = 0.; vector = 0. }
let add_loads a b = { matrix = a.matrix +. b.matrix; vector = a.vector +. b.vector }

type op_total = { op : Einsum.t; module_ : Phase.layer_kind; total : float; instances : float }

let default_m0 (w : Workload.t) = Extents.find (Workload.extents w) "m0"

let tile_extents (w : Workload.t) ~m0 =
  let m = w.model in
  Extents.of_list
    [
      ("d", m.Model.d_model);
      ("p", w.seq_len);
      ("m0", m0);
      ("h", m.Model.heads);
      ("e", m.Model.head_dim);
      ("f", m.Model.head_dim);
      ("s", m.Model.ffn_hidden);
    ]

(* Instance count of an operation within one layer (per batch element):
   anything touched by the m1 loop — an operation indexed by m0, or a
   running-state update of the MHA loop body — executes once per key/value
   tile; the rest once.  Causal masking halves the attention-loop work
   (each query attends on average to half the keys).  The per-m0-tile K/V
   projections (BK/BV — m0-indexed but outside the attention loop) cover
   only [kv_proj_len] fresh positions: for self/cross attention that is
   the whole key/value sequence, but a decode step projects a single new
   position while its attention loop still walks the full cache, so their
   count is the (possibly fractional) [kv_proj_len / m0]. *)
let instance_count ~kv_len ~kv_proj_len ~causal ~m0 (op : Einsum.t) =
  let kv_tiles = float_of_int (kv_len / m0) in
  let proj_tiles = float_of_int kv_proj_len /. float_of_int m0 in
  let indexed_by_m0 = List.mem "m0" (Einsum.all_dims op) in
  if Cascades.in_attention_loop op then if causal then 0.5 *. kv_tiles else kv_tiles
  else if indexed_by_m0 then proj_tiles
  else 1.

let op_totals ?m0 ?kv_len ?kv_proj_len ?(causal = false) (w : Workload.t) cascade =
  let m0 = match m0 with Some v -> v | None -> default_m0 w in
  let kv_len = Option.value kv_len ~default:w.seq_len in
  let kv_proj_len = Option.value kv_proj_len ~default:kv_len in
  if m0 < 1 || kv_len mod m0 <> 0 then
    invalid_arg (Printf.sprintf "Layer_costs.op_totals: m0=%d does not divide kv_len=%d" m0 kv_len);
  if kv_proj_len < 1 then invalid_arg "Layer_costs.op_totals: kv_proj_len < 1";
  let extents = tile_extents w ~m0 in
  let batch = float_of_int w.batch in
  List.map
    (fun op ->
      let instances = batch *. instance_count ~kv_len ~kv_proj_len ~causal ~m0 op in
      let total = instances *. Einsum.compute_load extents op in
      { op; module_ = Cascades.module_of op; total; instances })
    (Cascade.ops cascade)

let loads totals =
  List.fold_left
    (fun acc { op; total; _ } ->
      if Einsum.is_matrix_op op then { acc with matrix = acc.matrix +. total }
      else { acc with vector = acc.vector +. total })
    zero totals

let nominal_epochs = 256.

type problem = {
  cascade : Cascade.t;
  extents : Extents.t;
  totals : op_total array;
  dag : Einsum.t Tf_dag.Dag.t;
  plan : Dpipe.plan;
  load : int -> float;
  matrix : int -> bool;
}

let of_totals cascade ~dag ~plan ~extents totals =
  let totals = Array.of_list totals in
  {
    cascade;
    extents;
    totals;
    dag;
    plan;
    load = (fun n -> totals.(n).total /. nominal_epochs);
    matrix = (fun n -> Einsum.is_matrix_op totals.(n).op);
  }

let problem ?m0 ?kv_len ?kv_proj_len ?causal w cascade =
  let m0 = match m0 with Some v -> v | None -> default_m0 w in
  let dag = Cascade.to_dag cascade in
  of_totals cascade ~dag ~plan:(Dpipe.plan dag) ~extents:(tile_extents w ~m0)
    (op_totals ~m0 ?kv_len ?kv_proj_len ?causal w cascade)
