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

let nominal_epochs = 256.

(* The op table over a number domain.  Instance count of an operation
   within one layer (per batch element): anything touched by the m1 loop
   — an operation indexed by m0, or a running-state update of the MHA
   loop body — executes once per key/value tile; the rest once.  Causal
   masking halves the attention-loop work (each query attends on average
   to half the keys).  The per-m0-tile K/V projections (BK/BV —
   m0-indexed but outside the attention loop) cover only [kv_proj_len]
   fresh positions: for self/cross attention that is the whole key/value
   sequence, but a decode step projects a single new position while its
   attention loop still walks the full cache, so their count is the
   (possibly fractional) [kv_proj_len / m0]. *)
module Table (N : Num_domain.S) = struct
  let row ~batch ~m0 ~extents ~seq ~kv_len ~kv_proj_len ~causal op =
    let tiles len = N.div len (float_of_int m0) in
    let count =
      if Cascades.in_attention_loop op then
        if causal then N.mul (N.of_float 0.5) (tiles kv_len) else tiles kv_len
      else if List.mem "m0" (Einsum.all_dims op) then tiles kv_proj_len
      else N.of_int 1
    in
    let instances = N.mul (N.of_int batch) count in
    let extent d = if d = "p" then seq else N.of_int (Extents.find extents d) in
    let product = function
      | [] -> N.of_int 1
      | d :: rest -> List.fold_left (fun acc x -> N.mul acc (extent x)) (extent d) rest
    in
    let out = product (Einsum.output_dims op) and red = product (Einsum.reduction_dims op) in
    (instances, N.mul instances (N.mul (N.mul out red) (N.of_float (Einsum.cost_factor op))))

  let load total = N.div total nominal_epochs

  let node_time arch ~matrix total resource =
    N.div (load total) (Tf_arch.Arch.effective_pes arch resource ~matrix)
end

module F = Table (Num_domain.Float)

let op_totals ?m0 ?kv_len ?kv_proj_len ?(causal = false) (w : Workload.t) cascade =
  let m0 = match m0 with Some v -> v | None -> default_m0 w in
  let kv_len = Option.value kv_len ~default:w.seq_len in
  let kv_proj_len = Option.value kv_proj_len ~default:kv_len in
  if m0 < 1 || kv_len mod m0 <> 0 then
    invalid_arg (Printf.sprintf "Layer_costs.op_totals: m0=%d does not divide kv_len=%d" m0 kv_len);
  if kv_proj_len < 1 then invalid_arg "Layer_costs.op_totals: kv_proj_len < 1";
  let fi = float_of_int in
  let row =
    F.row ~batch:w.batch ~m0 ~extents:(tile_extents w ~m0) ~seq:(fi w.seq_len) ~kv_len:(fi kv_len)
      ~kv_proj_len:(fi kv_proj_len) ~causal
  in
  List.map
    (fun op ->
      let instances, total = row op in
      { op; module_ = Cascades.module_of op; total; instances })
    (Cascade.ops cascade)

let loads totals =
  List.fold_left
    (fun acc { op; total; _ } ->
      if Einsum.is_matrix_op op then { acc with matrix = acc.matrix +. total }
      else { acc with vector = acc.vector +. total })
    zero totals

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
    load = (fun n -> F.load totals.(n).total);
    matrix = (fun n -> Einsum.is_matrix_op totals.(n).op);
  }

let problem ?m0 ?kv_len ?kv_proj_len ?causal w cascade =
  let m0 = match m0 with Some v -> v | None -> default_m0 w in
  let dag = Cascade.to_dag cascade in
  of_totals cascade ~dag ~plan:(Dpipe.plan dag) ~extents:(tile_extents w ~m0)
    (op_totals ~m0 ?kv_len ?kv_proj_len ?causal w cascade)
