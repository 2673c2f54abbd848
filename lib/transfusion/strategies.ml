open Tf_arch
open Tf_workloads
open Tf_costmodel
module Cascade = Tf_einsum.Cascade
module Einsum = Tf_einsum.Einsum
module Extents = Tf_einsum.Extents

type t = Unfused | Flat | Fusemax | Fusemax_layerfuse | Transfusion

type attention = Self | Causal_self | Cross of { kv_len : int } | Decode of { kv_len : int }

type objective = Latency_obj | Energy_obj | Edp_obj

type result = {
  strategy : t;
  arch : Arch.t;
  workload : Workload.t;
  latency : Latency.t;
  energy : Energy.breakdown;
  traffic : Traffic.t;
  attention : attention;
  tiling : Tileseek.config option;
}

let all = [ Unfused; Flat; Fusemax; Fusemax_layerfuse; Transfusion ]

let name = function
  | Unfused -> "unfused"
  | Flat -> "flat"
  | Fusemax -> "fusemax"
  | Fusemax_layerfuse -> "fusemax+layerfuse"
  | Transfusion -> "transfusion"

let of_name s = List.find_opt (fun t -> name t = s) all
let pp_name ppf t = Fmt.string ppf (name t)

type attention_dims = { kv_len : int; kv_proj_len : int; causal : bool; decode : bool }

let attention_dims ?(attention = Self) (w : Workload.t) =
  let kv_len, decode =
    match attention with
    | Cross { kv_len } -> (kv_len, false)
    | Decode { kv_len } -> (kv_len, true)
    | Self | Causal_self -> (w.seq_len, false)
  in
  if kv_len < 1 then invalid_arg "Strategies.attention_dims: kv_len must be positive";
  {
    kv_len;
    (* Key/value positions whose projections run this pass: the whole
       key/value sequence, except in a decode step, which appends only the
       workload's own (single-position) query to a pre-existing cache. *)
    kv_proj_len = (if decode then w.seq_len else kv_len);
    causal = attention = Causal_self;
    decode;
  }

let attention_name = function
  | Self -> "self"
  | Causal_self -> "causal"
  | Cross { kv_len } -> Printf.sprintf "cross(kv=%d)" kv_len
  | Decode { kv_len } -> Printf.sprintf "decode(kv=%d)" kv_len

(* ------------------------------------------------------------------ *)
(* Workload context                                                    *)

type ctx = {
  arch : Arch.t;
  w : Workload.t;
  n : float;  (* sequence length *)
  bsz : float;
  d : float;
  ef : float;  (* head dim (E = F) *)
  s : float;
  layers : float;
  a : float;  (* activation volume B*N*D *)
  w_qkv : float;
  w_ffn : float;
  scores : float;  (* B*H*N^2 *)
  hidden : float;  (* B*N*S *)
  buf : float;  (* buffer capacity, elements *)
  m0 : int;  (* inner key/value tile *)
  attention : attention;
  dims : attention_dims;
  n_kv : float;
  a_kv : float;  (* key/value activation volume B*KV*D *)
  a_proj : float;  (* projected key/value activation volume B*KV_PROJ*D *)
  include_ffn : bool;
  objective : objective;
}

let layer_problem ?attention (w : Workload.t) =
  let a = attention_dims ?attention w in
  Layer_costs.problem ~m0:(Workload.default_m0 a.kv_len) ~kv_len:a.kv_len
    ~kv_proj_len:a.kv_proj_len ~causal:a.causal w
    (Cascades.full_layer w.model.Model.activation)

let make_ctx ?(attention = Self) ?(include_ffn = true) ?layers ?(objective = Latency_obj)
    (arch : Arch.t) (w : Workload.t) =
  let m = w.model in
  let fi = float_of_int in
  let n = fi w.seq_len and bsz = fi w.batch in
  let d = fi m.Model.d_model and h = fi m.Model.heads and ef = fi m.Model.head_dim in
  let s = fi m.Model.ffn_hidden in
  let dims = attention_dims ~attention w in
  let n_kv = fi dims.kv_len in
  let causal_factor = if dims.causal then 0.5 else 1. in
  {
    arch;
    w;
    n;
    bsz;
    d;
    ef;
    s;
    layers = (match layers with Some l -> fi l | None -> fi m.Model.layers);
    a = bsz *. n *. d;
    w_qkv = 3. *. d *. d;
    w_ffn = (2. *. d *. s) +. s +. d;
    scores = bsz *. h *. n *. n_kv *. causal_factor;
    hidden = bsz *. n *. s;
    buf = fi (Arch.buffer_elements arch);
    (* The inner key/value tile is the balanced split of the key/value
       sequence — the cache length for a decode step. *)
    m0 = Workload.default_m0 dims.kv_len;
    attention;
    dims;
    n_kv;
    a_kv = bsz *. n_kv *. d;
    a_proj = bsz *. fi dims.kv_proj_len *. d;
    include_ffn;
    objective;
  }

(* Tiled-matmul DRAM read volume (elements) for [rows x inner] times
   [inner x cols].  When both operands fit on-chip each is read once;
   otherwise the better of the two blocked loop orders is used: hold
   weight slices resident and re-stream the input once per slice, or hold
   input slices resident and re-stream the weights. *)
let matmul_reads ctx ~rows ~inner ~cols =
  let input = rows *. inner and weight = inner *. cols in
  let once = input +. weight in
  if once <= ctx.buf then once
  else
    let share = ctx.buf /. 2. in
    let weight_resident = weight +. (Float.of_int (int_of_float (ceil (weight /. share))) *. input) in
    let input_resident = input +. (Float.of_int (int_of_float (ceil (input /. share))) *. weight) in
    Float.min weight_resident input_resident

(* One module of an op table: its rows, their loads and their einsum
   input/output streaming volumes (elements, for buffer/register-file
   energy accounting), each summed in op order. *)
type part = {
  kind : Phase.layer_kind;
  rows : Layer_costs.op_total list;
  loads : Layer_costs.loads;
  io : float * float;
}

let io_volumes extents rows =
  List.fold_left
    (fun (reads, writes) { Layer_costs.op; instances; _ } ->
      let vol r = float_of_int (Extents.volume extents r) in
      let input_vol = List.fold_left (fun acc r -> acc +. vol r) 0. op.Einsum.inputs in
      (reads +. (instances *. input_vol), writes +. (instances *. vol op.Einsum.output)))
    (0., 0.) rows

(* The op table of a ctx: one [Layer_costs.op_totals] pass over the
   layer at the ctx's tile, with its tile extents and its rows split by
   module, in layer order (each module's ops are contiguous).
   Everything an evaluation prices reads it. *)
let op_table ctx cascade =
  let extents = Layer_costs.tile_extents ctx.w ~m0:ctx.m0 in
  let rows =
    Layer_costs.op_totals ~m0:ctx.m0 ~kv_len:ctx.dims.kv_len ~kv_proj_len:ctx.dims.kv_proj_len
      ~causal:ctx.dims.causal ctx.w cascade
  in
  let split =
    List.fold_right
      (fun (r : Layer_costs.op_total) -> function
        | (kind, rs) :: rest when kind = r.Layer_costs.module_ -> (kind, r :: rs) :: rest
        | acc -> (r.Layer_costs.module_, [ r ]) :: acc)
      rows []
  in
  ( rows,
    extents,
    List.map
      (fun (kind, rows) ->
        { kind; rows; loads = Layer_costs.loads rows; io = io_volumes extents rows })
      split )

let loads_ops (l : Layer_costs.loads) = l.matrix +. l.vector

(* Largest power of two <= x, at least 1. *)
let pow2_floor x =
  let rec grow v = if 2. *. v <= x then grow (2. *. v) else v in
  if x < 1. then 1. else grow 1.

(* Query rows resident per streaming attention tile under the per-head
   (FuseMax/FLAT) discipline: a head-slice of Q plus running state plus the
   current K/V tile must fit in half the buffer. *)
let stream_q_rows ctx =
  let m0 = float_of_int ctx.m0 in
  let state_per_row = (2. *. ctx.ef) +. 4. in
  let kv_tile = 2. *. m0 *. ctx.ef in
  let cap = ((ctx.buf /. 2.) -. kv_tile) /. state_per_row in
  Float.min ctx.n (pow2_floor (Float.max 1. cap))

let causal_factor ctx = if ctx.dims.causal then 0.5 else 1.

let kv_stream_reads ctx ~q_rows =
  ctx.n /. q_rows *. 2. *. ctx.a_kv *. causal_factor ctx

(* ------------------------------------------------------------------ *)
(* Pipelined executions via DPipe                                      *)

type exec_summary = {
  makespan : float;
  useful_2d : float;
  useful_1d : float;
  node_busy : float array;  (* per-DAG-node busy cycles over the horizon *)
}

let seq_exec ctx (l : Layer_costs.loads) =
  Phase.sequential_execution ctx.arch ~matrix_load:l.matrix ~vector_load:l.vector

let exec_of_summary { makespan; useful_2d; useful_1d; _ } =
  { Phase.makespan_cycles = makespan; useful_2d_slots = useful_2d; useful_1d_slots = useful_1d }

let add_exec (a : Phase.execution) (b : Phase.execution) =
  {
    Phase.makespan_cycles = a.Phase.makespan_cycles +. b.Phase.makespan_cycles;
    useful_2d_slots = a.Phase.useful_2d_slots +. b.Phase.useful_2d_slots;
    useful_1d_slots = a.Phase.useful_1d_slots +. b.Phase.useful_1d_slots;
  }

(* One DPipe run a strategy prices: a problem at the ctx's tile under
   DPipe or under FuseMax's pins.  The memo-miss path below, which runs
   the schedule, keeps it in [kept] where it may become part of an
   execution; when the memo answered instead, [scheduled] re-runs it for
   the reader of the final execution. *)
type run = {
  ctx : ctx;
  problem : Layer_costs.problem Lazy.t;
  pinned : bool;
  mutable kept : Dpipe.t option;
}

type scheduled = { problem : Layer_costs.problem; schedule : Dpipe.t Lazy.t }

(* The summary a strategy prices: the schedule extrapolated to the
   nominal epoch count. *)
let pipelined_exec ({ Layer_costs.totals; _ }, sched) =
  let epochs = Layer_costs.nominal_epochs in
  let node_busy = Array.make (Array.length totals) 0. in
  let unrolled = float_of_int sched.Dpipe.epochs_unrolled in
  List.iter
    (fun (a : Dpipe.assignment) ->
      node_busy.(a.Dpipe.node) <-
        node_busy.(a.Dpipe.node)
        +. ((a.Dpipe.end_cycle -. a.Dpipe.start_cycle) *. epochs /. unrolled))
    sched.Dpipe.assignments;
  {
    makespan = Dpipe.total_cycles sched ~epochs;
    useful_2d = sched.Dpipe.useful_2d_per_epoch *. epochs;
    useful_1d = sched.Dpipe.useful_1d_per_epoch *. epochs;
    node_busy;
  }

(* The FuseMax static assignment: matmuls on the 2D array; per-tile
   partial softmax (vector work indexed by the inner key/value dimension)
   wherever its sustained vector throughput is higher — the 2D array on
   cloud-class parts, the 1D array on edge parts; cross-tile
   running-state updates on the 1D array. *)
let fusemax_assign (arch : Arch.t) cascade =
  let ops = Array.of_list (Cascade.ops cascade) in
  let vector_2d_wins =
    Arch.effective_pes arch Arch.Pe_2d ~matrix:false
    > Arch.effective_pes arch Arch.Pe_1d ~matrix:false
  in
  fun node ->
    let op = ops.(node) in
    if Einsum.is_matrix_op op then Arch.Pe_2d
    else if vector_2d_wins && List.mem "m0" (Einsum.all_dims op) then Arch.Pe_2d
    else Arch.Pe_1d

let run_schedule (r : run) =
  let ({ Layer_costs.cascade; load; matrix; plan; _ } as problem) = Lazy.force r.problem in
  let mode = if r.pinned then `Static (fusemax_assign r.ctx.arch cascade) else `Dp in
  (problem, Dpipe.schedule ~mode r.ctx.arch ~load ~matrix plan)

let scheduled (r : run) =
  {
    problem = Lazy.force r.problem;
    schedule =
      (match r.kept with Some s -> Lazy.from_val s | None -> lazy (snd (run_schedule r)));
  }

(* Presets share names with ablation variants that tweak individual
   parameters (e.g. [Ablations.with_effs]), so the key must fingerprint
   every arch field a result reads — keying on the name alone made
   distinct archs collide and the cached result depend on evaluation
   order.  Every field of [Arch.t] is rendered, in record order, since
   each can change a result: [element_bytes] sets the buffer capacity,
   the 2D array's rows enter TileSeek's buffer requirement, the energy
   table prices every access. *)
let render_fingerprint (a : Arch.t) =
  let shape (pe : Pe_array.t) =
    match pe.Pe_array.shape with
    | Pe_array.One_d w -> Printf.sprintf "%s[%d]" pe.Pe_array.name w
    | Pe_array.Two_d (r, c) -> Printf.sprintf "%s[%dx%d]" pe.Pe_array.name r c
  in
  let e = a.Arch.energy in
  Printf.sprintf "%s:%s:%s:%d:%h:%h:%d:%h:%h:%h:%h:%h:%h:%h" a.Arch.name (shape a.Arch.pe_2d)
    (shape a.Arch.pe_1d) a.Arch.buffer_bytes a.Arch.dram_bw_bytes_per_s a.Arch.clock_hz
    a.Arch.element_bytes a.Arch.vector_eff_2d a.Arch.matrix_eff_1d e.Energy_table.dram_access_pj
    e.Energy_table.buffer_access_pj e.Energy_table.regfile_access_pj e.Energy_table.mac_pj
    e.Energy_table.vector_op_pj

(* The fingerprints of the most recently seen arch values, found by
   physical identity: an arch is immutable, and a daemon or a sweep asks
   about the same few preset values over and over, so each is rendered
   once rather than by [%h] formatting on every cache key.  A lost
   update between domains only costs a re-render. *)
let recent_fingerprints : (Arch.t * string) list Atomic.t = Atomic.make []
let recent_limit = 16

let arch_fingerprint (a : Arch.t) =
  let rec find = function
    | [] ->
        let fp = render_fingerprint a in
        let recent = Atomic.get recent_fingerprints in
        Atomic.set recent_fingerprints
          ((a, fp) :: List.filteri (fun i _ -> i < recent_limit - 1) recent);
        fp
    | (a', fp) :: rest -> if a' == a then fp else find rest
  in
  find (Atomic.get recent_fingerprints)

(* Everything a DPipe run reads, compared structurally.  The model is
   the full record, not its name: the FFN activation changes the
   per-op loads, and same-name models with different activations
   collided under a name key, so a result depended on what ran
   earlier in the process.  Fields are read only by the memo's
   structural hashing and comparison. *)
type dpipe_key = {
  dk_arch : string;  (* [arch_fingerprint] *)
  dk_model : Model.t;
  dk_seq_len : int;
  dk_batch : int;
  dk_m0 : int;
  dk_tag : string;
  dk_attention : attention;
  dk_include_ffn : bool;
}
[@@warning "-69"]

(* Memoised DPipe runs.  The table is shared by concurrent sweep
   evaluations, hence the mutexed [Tf_parallel.Memo]; bounded so a
   long-running server cannot grow it without limit (an evicted
   schedule recomputes on its next request).  Its hits come from the
   strategies of one sweep point sharing a schedule, so they sit close
   together: the figure sweeps hit exactly as often at 64 entries as
   at 2048 (DESIGN.md §10a), while a daemon's distinct keys almost
   never hit and only fill memory. *)
let dpipe_cache : (dpipe_key, exec_summary) Tf_parallel.Memo.t =
  Tf_parallel.Memo.create ~name:"strategies.dpipe" ~capacity:256 ()

let reset_registries () = Tf_parallel.Memo.clear dpipe_cache

let cached_pipelined ~tag ~keep (run : run) =
  let ctx = run.ctx in
  let key =
    {
      dk_arch = arch_fingerprint ctx.arch;
      dk_model = ctx.w.model;
      dk_seq_len = ctx.w.seq_len;
      dk_batch = ctx.w.batch;
      dk_m0 = ctx.m0;
      dk_tag = tag;
      dk_attention = ctx.attention;
      dk_include_ffn = ctx.include_ffn;
    }
  in
  Tf_parallel.Memo.find_or_compute dpipe_cache key (fun () ->
      let ((_, sched) as ran) = run_schedule run in
      if keep then run.kept <- Some sched;
      pipelined_exec ran)

(* A cascade, its DAG and the DAG's DPipe plan, built on first use and
   shared by every problem of the cascade that a state builds: a search's
   slices differ only in their loads, so one plan serves them all. *)
type shape = { cascade : Cascade.t; dag : Einsum.t Tf_dag.Dag.t; plan : Dpipe.plan }

let shaped cascade =
  lazy
    (let cascade = cascade () in
     let dag = Cascade.to_dag cascade in
     { cascade; dag; plan = Dpipe.plan dag })

(* A run of an op table's [rows] of the [shape]d cascade: the fused layer
   ([Cascades.full_layer] at the ctx's [include_ffn]) under DPipe is
   TransFusion's schedule; FuseMax's statically [pinned] attention
   ([Cascades.mha]) is the FuseMax strategy's MHA and the attention
   inside every LayerFuse layer. *)
let run ~pinned ctx shape ~extents rows =
  let problem =
    lazy
      (let { cascade; dag; plan } = Lazy.force shape in
       Layer_costs.of_totals cascade ~dag ~plan ~extents rows)
  in
  { ctx; problem; pinned; kept = None }

let fusemax_mha_exec ~keep run = exec_of_summary (cached_pipelined ~tag:"fusemax-mha" ~keep run)

(* ------------------------------------------------------------------ *)
(* Traffic assembly                                                    *)

let base_traffic ~dram_reads ~dram_writes ~buffer_io ~regfile_io loads =
  let compute = loads_ops loads in
  let io_r, io_w = buffer_io and rf_r, rf_w = regfile_io in
  {
    Traffic.dram_reads;
    dram_writes;
    (* DRAM transfers fill/drain through the buffer as well. *)
    buffer_reads = dram_writes +. io_r;
    buffer_writes = dram_reads +. io_w;
    regfile_accesses = (3. *. compute) +. rf_r +. rf_w;
    macs = loads.Layer_costs.matrix;
    vector_ops = loads.Layer_costs.vector;
  }

(* ------------------------------------------------------------------ *)
(* Per-strategy phase builders (whole model)                           *)

let scale_layers ctx phase = Phase.scale ctx.layers phase

let unfused_module_traffic ctx kind =
  (* K/V projections touch only the positions projected this pass (the
     whole key/value sequence, or the single appended position of a
     decode step); attention reads the full resident cache regardless. *)
  let rows = ctx.bsz *. ctx.n and proj_rows = ctx.bsz *. float_of_int ctx.dims.kv_proj_len in
  match kind with
  | Phase.Qkv ->
      ( matmul_reads ctx ~rows ~inner:ctx.d ~cols:ctx.d
        +. (2. *. matmul_reads ctx ~rows:proj_rows ~inner:ctx.d ~cols:ctx.d),
        ctx.a +. (2. *. ctx.a_proj) )
  | Phase.Mha ->
      (* Q, K and V stream in; scores stream out once, back in for the max
         pass, out and in again around the exponentiation/normalisation,
         then in once more for the weighted sum with V. *)
      (ctx.a +. (2. *. ctx.a_kv) +. (3. *. ctx.scores), ctx.a +. (2. *. ctx.scores))
  | Phase.Layernorm -> (2. *. ctx.a, ctx.a)
  | Phase.Ffn ->
      ( matmul_reads ctx ~rows ~inner:ctx.d ~cols:ctx.s
        +. matmul_reads ctx ~rows ~inner:ctx.s ~cols:ctx.d
        +. (2. *. ctx.hidden),
        (2. *. ctx.hidden) +. ctx.a )
  | Phase.Fused_stack -> invalid_arg "unfused_module_traffic"

let unfused_like_phases ?mha ctx =
  let layer = Cascades.full_layer ~include_ffn:ctx.include_ffn ctx.w.model.Model.activation in
  let _, extents, parts = op_table ctx layer in
  List.map
    (fun { kind; rows; loads; io } ->
      let phase =
        match (kind, mha) with
        | Phase.Mha, Some build -> build loads io extents rows
        | _ ->
            let dram_reads, dram_writes = unfused_module_traffic ctx kind in
            Phase.v
              ~name:(Phase.layer_kind_to_string kind)
              ~kind
              ~traffic:
                (base_traffic ~dram_reads ~dram_writes ~buffer_io:io ~regfile_io:(0., 0.) loads)
              ~execution:(seq_exec ctx loads) ()
      in
      scale_layers ctx phase)
    parts

(* FLAT and FuseMax fuse attention: query tiles stream against the K/V
   tiles, so no score traffic reaches DRAM. *)
let streamed_mha ctx ~name ~buffer_io ~regfile_io ~execution loads =
  let dram_reads = ctx.a +. kv_stream_reads ctx ~q_rows:(stream_q_rows ctx) in
  Phase.v ~name ~kind:Phase.Mha
    ~traffic:(base_traffic ~dram_reads ~dram_writes:ctx.a ~buffer_io ~regfile_io loads)
    ~execution ()

(* FLAT: sequential execution, intermediates staged through the buffer. *)
let flat_phases ctx =
  unfused_like_phases ctx ~mha:(fun loads io _ _ ->
      streamed_mha ctx ~name:"MHA(flat)" ~buffer_io:io ~regfile_io:(0., 0.)
        ~execution:(seq_exec ctx loads) loads)

(* FuseMax: statically pipelined attention with in-register retention of
   intermediates. *)
let fusemax_phases ctx =
  unfused_like_phases ctx ~mha:(fun loads io extents rows ->
      let mha = run ~pinned:true ctx (shaped Cascades.mha) ~extents rows in
      streamed_mha ctx ~name:"MHA(fusemax)" ~buffer_io:(0., 0.) ~regfile_io:io
        ~execution:(fusemax_mha_exec ~keep:false mha) loads)

(* Shared fused-stack traffic for LayerFuse and TransFusion: activations
   propagate on-chip; K/V round-trip through DRAM per layer and are
   re-read once per query tile unless the resident m1*m0 slice holds the
   whole key/value sequence; module handoffs stage one activation volume
   in the buffer.  The callers (the choices below) pass the
   tiling-invariant ingredients — the per-layer op loads, the summed
   einsum I/O volumes and the weight reads — from the evaluation state,
   so a TileSeek candidate costs a handful of float operations plus one
   [Traffic.t] record. *)

let stack_weight_reads ctx = ctx.w_qkv +. if ctx.include_ffn then ctx.w_ffn else 0.

let kv_reads ctx (config : Tileseek.config) =
  let kv_resident = float_of_int (config.Tileseek.m1 * config.Tileseek.m0) in
  let kv_passes =
    if kv_resident >= ctx.n_kv then 1. else ctx.n /. float_of_int config.Tileseek.p
  in
  kv_passes *. 2. *. ctx.a_kv *. causal_factor ctx

let stack_traffic ctx ~(loads : Layer_costs.loads) ~io ~dram_reads ~dram_writes =
  let io_r, io_w = io and handoffs = 4. *. ctx.a in
  base_traffic ~dram_reads ~dram_writes
    ~buffer_io:(ctx.layers *. handoffs, ctx.layers *. handoffs)
    ~regfile_io:(ctx.layers *. io_r, ctx.layers *. io_w)
    {
      Layer_costs.matrix = ctx.layers *. loads.Layer_costs.matrix;
      vector = ctx.layers *. loads.Layer_costs.vector;
    }

let fused_stack_traffic ctx (config : Tileseek.config) ~loads ~io ~w_all =
  (* The fused stack pins resident query rows on-chip and streams every
     weight tensor through once per tile pass — the structural price of
     end-to-end fusion (big tiles amortise it; TileSeek maximises
     b*p under the Table 2 budget). *)
  let tile_passes =
    ctx.bsz *. ctx.n /. (float_of_int config.Tileseek.b *. float_of_int config.Tileseek.p)
  in
  let per_layer_reads = (tile_passes *. w_all) +. kv_reads ctx config in
  (* Only freshly projected K/V rows are written back per layer — for a
     decode step that is the single appended cache position, not the
     whole resident cache (which was written by earlier steps). *)
  stack_traffic ctx ~loads ~io
    ~dram_reads:((ctx.layers *. per_layer_reads) +. ctx.a)
    ~dram_writes:((ctx.layers *. (2. *. ctx.a_proj)) +. ctx.a)

(* Traffic of the intra-layer-fused variant: each layer executes alone,
   so its big matmuls run weight-stationary (the blocked I/O model) and
   only the layer boundaries round-trip activations through DRAM, while
   every module inside a layer stays fused. *)
let intra_weight_reads ctx =
  let rows = ctx.bsz *. ctx.n and proj_rows = ctx.bsz *. float_of_int ctx.dims.kv_proj_len in
  matmul_reads ctx ~rows ~inner:ctx.d ~cols:ctx.d
  +. (2. *. matmul_reads ctx ~rows:proj_rows ~inner:ctx.d ~cols:ctx.d)
  +.
  if ctx.include_ffn then
    matmul_reads ctx ~rows ~inner:ctx.d ~cols:ctx.s
    +. matmul_reads ctx ~rows ~inner:ctx.s ~cols:ctx.d
  else 0.

let intra_layer_traffic ctx config ~loads ~io ~weight_reads =
  stack_traffic ctx ~loads ~io
    ~dram_reads:(ctx.layers *. (weight_reads +. kv_reads ctx config +. ctx.a))
    ~dram_writes:(ctx.layers *. (ctx.a +. (2. *. ctx.a_proj)))

(* The search objective, written once: latency plus a small memory-time
   term — the paper's TileSeek also rewards off-chip traffic and energy
   (Section 5), so among latency-equal tilings the one moving less data
   wins.  The weight is kept small so the latency figures stay the
   primary objective.  [latency_s] and [memory_s] are the seconds of the
   phases that move [traffic]. *)
let objective_cost ctx ~latency_s ~memory_s ~traffic =
  match ctx.objective with
  | Latency_obj -> latency_s +. (0.02 *. memory_s)
  | Energy_obj -> Energy.total_pj (Energy.of_traffic ctx.arch traffic)
  | Edp_obj -> latency_s *. Energy.total_pj (Energy.of_traffic ctx.arch traffic)

(* The objective of a phase list through the full latency model and
   summed traffic: the cold-path reference of [single_phase_cost]. *)
let tiling_cost ctx phase_list =
  let lat = Latency.evaluate ctx.arch phase_list in
  let memory_s =
    List.fold_left (fun acc (r : Latency.phase_result) -> acc +. r.memory_s) 0. lat.Latency.phases
  in
  objective_cost ctx ~latency_s:lat.Latency.total_s ~memory_s
    ~traffic:(Traffic.sum (List.map (fun (p : Phase.t) -> p.Phase.traffic) phase_list))

let normalise_parts per =
  let kinds = [ Phase.Qkv; Phase.Mha; Phase.Layernorm; Phase.Ffn ] in
  let total = List.fold_left (fun acc (_, c) -> acc +. c) 0. per in
  List.map
    (fun k ->
      let c = List.fold_left (fun acc (k', c) -> if k' = k then acc +. c else acc) 0. per in
      (k, if total > 0. then c /. total else 0.25))
    kinds

(* The per-layer execution of the LayerFuse ablation: pipelined attention
   (FuseMax style, scheduled by [mha_run], its schedule kept if [keep]),
   everything else sequential; no cross-module overlap.  Returned with
   its attribution to the per-layer buckets (Figure 11), by each module's
   share of the sequential per-layer makespans. *)
let layerfuse_layer ~keep ctx mha_run parts =
  let mha = fusemax_mha_exec ~keep mha_run in
  let rest =
    List.filter_map
      (fun p -> if p.kind = Phase.Mha then None else Some (p.kind, seq_exec ctx p.loads))
      parts
  in
  ( List.fold_left (fun acc (_, e) -> add_exec acc e) mha rest,
    normalise_parts
      ((Phase.Mha, mha.Phase.makespan_cycles)
      :: List.map (fun (k, e) -> (k, e.Phase.makespan_cycles)) rest) )

(* Attribution of the TransFusion phase: the busy cycles the DPipe
   schedule of the layer actually assigned to each module's operations. *)
let transfusion_parts rows summary =
  normalise_parts
    (List.mapi (fun i (r : Layer_costs.op_total) -> (r.Layer_costs.module_, summary.node_busy.(i)))
       rows)

type layer_choice = { served : [ `Dpipe | `Static ]; dpipe_cycles : float; static_cycles : float }

(* The served layer execution of [dpipe] and its static alternative
   around [mha].  Their schedules are kept for the execution, the pinned
   MHA's only where static is served. *)
let transfusion_layer ctx ~rows ~parts ~dpipe ~mha =
  let dp = cached_pipelined ~tag:"transfusion-layer" ~keep:true dpipe in
  (* DPipe's candidate space contains the static layer-sequential schedule,
     so the better of the two is what the scheduler would emit; the greedy
     DP evaluation occasionally loses a percent to it on chunky DAGs. *)
  let static, static_parts = layerfuse_layer ~keep:true ctx mha parts in
  let static_cycles = static.Phase.makespan_cycles in
  let choice served = { served; dpipe_cycles = dp.makespan; static_cycles } in
  if dp.makespan <= static_cycles then begin
    mha.kept <- None;
    (choice `Dpipe, (exec_of_summary dp, transfusion_parts rows dp))
  end
  else (choice `Static, (static, static_parts))

(* ------------------------------------------------------------------ *)
(* Reusable evaluation state for the TileSeek inner loop               *)

(* One tiling search scores hundreds of candidates, but nearly all of
   what a candidate's cost depends on is a function of the workload and
   [m0] alone: the per-layer op totals, the einsum I/O volumes and the
   (cached) DPipe executions.  The state hoists the workload-invariant
   terms (the cascades and their DAGs among them) once per search and
   derives one slice per distinct [m0], so the per-candidate dirty set
   is just the traffic record: every move re-scores the traffic against
   the cached slice, and only an m0 move builds a new slice.  A slice
   totals the layer's ops once ([op_table]); its loads, I/O volumes,
   attribution and DPipe problems all read that table.  The slice's
   executions are lazy so a LayerFuse search never runs the TransFusion
   DPipe schedule and vice versa.  The slice also holds the two DPipe
   runs it prices, so the final slice's schedules are the ones the
   result was priced with ([execution] below). *)

type eval_exec = {
  ex_execution : Phase.execution;  (* layers-scaled *)
  ex_parts : (Phase.layer_kind * float) list;
  ex_compute_s : float;  (* Latency.compute_seconds of ex_execution *)
}

type eval_slice = {
  sl_ctx : ctx;  (* the state's ctx at this slice's m0 *)
  sl_loads : Layer_costs.loads;  (* fused-stack per-layer op loads *)
  sl_io : float * float;  (* einsum I/O volumes, summed module by module *)
  sl_dpipe : run;  (* the fused layer under DPipe *)
  sl_mha : run;  (* FuseMax-pinned MHA: the static alternative's and LayerFuse's *)
  sl_tf : (layer_choice * eval_exec) Lazy.t;  (* TransFusion: better of DPipe and static *)
  sl_lf : eval_exec Lazy.t;  (* LayerFuse: sequential modules, pipelined MHA *)
}

type eval_state = {
  es_ctx : ctx;
  es_w_all : float;  (* fused-stack weight volume per tile pass *)
  es_intra_wr : float;  (* blocked-matmul weight reads, m0-invariant *)
  es_layer : Cascade.t;  (* the fused layer, totalled by every slice *)
  es_layer_shape : shape Lazy.t;  (* es_layer, shaped *)
  es_mha : shape Lazy.t;  (* the pinned runs' [Cascades.mha] *)
  es_slices : (int, eval_slice) Hashtbl.t;  (* keyed by m0 *)
}

let m_eval_states =
  Tf_obs.Counter.create ~help:"TileSeek evaluation states built (one per search)"
    "strategies.eval_states_total"

let m_slice_builds =
  Tf_obs.Counter.create ~help:"per-m0 evaluation slices derived (op totals + I/O volumes)"
    "strategies.eval_slice_builds_total"

let m_slice_hits =
  Tf_obs.Counter.create ~help:"candidate evaluations reusing an already-built m0 slice"
    "strategies.eval_slice_hits_total"

let m_scores =
  Tf_obs.Counter.create ~help:"full scalar candidate scorings (traffic assembly + cost)"
    "strategies.eval_scores_total"

let make_eval_state ctx =
  Tf_obs.Counter.incr m_eval_states;
  let layer = Cascades.full_layer ~include_ffn:ctx.include_ffn ctx.w.model.Model.activation in
  {
    es_ctx = ctx;
    es_w_all = stack_weight_reads ctx;
    es_intra_wr = intra_weight_reads ctx;
    es_layer = layer;
    es_layer_shape = shaped (fun () -> layer);
    es_mha = shaped Cascades.mha;
    es_slices = Hashtbl.create 16;
  }

let scaled_exec ctx (layer_exec, parts) =
  let execution =
    {
      Phase.makespan_cycles = ctx.layers *. layer_exec.Phase.makespan_cycles;
      useful_2d_slots = ctx.layers *. layer_exec.Phase.useful_2d_slots;
      useful_1d_slots = ctx.layers *. layer_exec.Phase.useful_1d_slots;
    }
  in
  {
    ex_execution = execution;
    ex_parts = parts;
    ex_compute_s = Latency.compute_seconds ctx.arch execution;
  }

let eval_slice st m0 =
  match Hashtbl.find_opt st.es_slices m0 with
  | Some sl ->
      Tf_obs.Counter.incr m_slice_hits;
      sl
  | None ->
      Tf_obs.Counter.incr m_slice_builds;
      let ctx = { st.es_ctx with m0 } in
      let rows, extents, parts = op_table ctx st.es_layer in
      let dpipe = run ~pinned:false ctx st.es_layer_shape ~extents rows in
      let mha =
        run ~pinned:true ctx st.es_mha ~extents (List.find (fun p -> p.kind = Phase.Mha) parts).rows
      in
      let sl =
        {
          sl_ctx = ctx;
          sl_loads =
            List.fold_left (fun acc p -> Layer_costs.add_loads acc p.loads) Layer_costs.zero parts;
          sl_io =
            List.fold_left (fun (r, w) { io = ir, iw; _ } -> (r +. ir, w +. iw)) (0., 0.) parts;
          sl_dpipe = dpipe;
          sl_mha = mha;
          sl_tf =
            lazy
              (let layer, exec = transfusion_layer ctx ~rows ~parts ~dpipe ~mha in
               (layer, scaled_exec ctx exec));
          sl_lf = lazy (scaled_exec ctx (layerfuse_layer ~keep:false ctx mha parts));
        }
      in
      Hashtbl.add st.es_slices m0 sl;
      sl

(* The objective of a single phase, bypassing the [Latency.t] result
   structure: for a one-phase list the latency folds collapse to the
   phase's own terms, and [Traffic.sum [t]] equals [t] field for field
   (0. +. x = x for the non-negative volumes involved), so the value
   equals [tiling_cost ctx [phase]] bit for bit while allocating no phase
   list, no result records and no summed traffic. *)
let single_phase_cost ctx ~compute_s ~traffic =
  let memory_s = Latency.memory_seconds ctx.arch traffic in
  objective_cost ctx ~latency_s:(Latency.phase_seconds ~compute_s ~memory_s) ~memory_s ~traffic

(* One strategy's decision for one tiling: the traffic it runs with, the
   slice execution, and the scalar cost the search ranks it by.  The
   scorer reads [ch_cost] and the phase builder reads the rest of the same
   record, so the phase served is the one that was scored. *)
type choice = { ch_name : string; ch_traffic : Traffic.t; ch_exec : eval_exec; ch_cost : float }

(* TransFusion adapts its fusion scope to the architecture (paper Section
   1: fusion "must be aware of and able to adapt to ... constraints of
   diverse hardware"): the full-stack fused schedule keeps activations
   on-chip but re-streams every weight per outer tile, while the
   intra-layer variant keeps the weight-stationary matmul I/O and pays
   one activation round-trip per layer.  Both use the same DPipe
   execution; the scheduler keeps the cheaper. *)
let transfusion_choice st (config : Tileseek.config) =
  let sl = eval_slice st config.Tileseek.m0 in
  let ctx = sl.sl_ctx in
  let _, tf = Lazy.force sl.sl_tf in
  let stack =
    fused_stack_traffic ctx config ~loads:sl.sl_loads ~io:sl.sl_io ~w_all:st.es_w_all
  in
  let intra =
    intra_layer_traffic ctx config ~loads:sl.sl_loads ~io:sl.sl_io
      ~weight_reads:st.es_intra_wr
  in
  let c_stack = single_phase_cost ctx ~compute_s:tf.ex_compute_s ~traffic:stack in
  let c_intra = single_phase_cost ctx ~compute_s:tf.ex_compute_s ~traffic:intra in
  if c_stack <= c_intra then
    { ch_name = "stack(transfusion)"; ch_traffic = stack; ch_exec = tf; ch_cost = c_stack }
  else { ch_name = "layers(transfusion)"; ch_traffic = intra; ch_exec = tf; ch_cost = c_intra }

let layerfuse_choice st (config : Tileseek.config) =
  let sl = eval_slice st config.Tileseek.m0 in
  let ctx = sl.sl_ctx in
  let lf = Lazy.force sl.sl_lf in
  let traffic =
    fused_stack_traffic ctx config ~loads:sl.sl_loads ~io:sl.sl_io ~w_all:st.es_w_all
  in
  {
    ch_name = "stack(layerfuse)";
    ch_traffic = traffic;
    ch_exec = lf;
    ch_cost = single_phase_cost ctx ~compute_s:lf.ex_compute_s ~traffic;
  }

let choice_phase c =
  Phase.v ~name:c.ch_name ~kind:Phase.Fused_stack ~parts:c.ch_exec.ex_parts ~traffic:c.ch_traffic
    ~execution:c.ch_exec.ex_execution ()

(* One candidate evaluation.  Tileseek's config memo is the one memo in
   front of it. *)
let score choose st config =
  Tf_obs.Counter.incr m_scores;
  (choose st config).ch_cost

let search_state choose ?seed ?probe ~iterations st =
  let ctx = st.es_ctx in
  Tileseek.search ?seed ?probe ~iterations ~kv_len:ctx.dims.kv_len ~decode:ctx.dims.decode
    ctx.arch ctx.w ~evaluate:(score choose st) ()

(* The per-layer execution a TransFusion result was priced with: the
   final slice's layer choice and its DPipe runs, the pinned MHA only
   where the static alternative is served. *)
type execution = { layer : layer_choice; dpipe : scheduled; static_mha : scheduled option }

let execution st (config : Tileseek.config) =
  let sl = eval_slice st config.Tileseek.m0 in
  let layer, _ = Lazy.force sl.sl_tf in
  {
    layer;
    dpipe = scheduled sl.sl_dpipe;
    static_mha =
      (match layer.served with `Dpipe -> None | `Static -> Some (scheduled sl.sl_mha));
  }

(* The fused-stack strategies: one TileSeek search (unless the tiling is
   given) against the strategy's own choice, then that choice's phase,
   with the state the phase was priced from.  The LayerFuse ablation
   keeps TileSeek (it removes DPipe, not the tiling search), so its outer
   tiles are searched against the LayerFuse cost. *)
let fused_phases choose ?tiling ~tileseek_iterations ctx =
  let st = make_eval_state ctx in
  let config =
    match tiling with
    | Some c -> c
    | None -> fst (search_state choose ~iterations:tileseek_iterations st)
  in
  ([ choice_phase (choose st config) ], Some (st, config))

let priced_phases ?tiling ?(tileseek_iterations = 200) ctx strategy =
  match strategy with
  | Unfused -> (unfused_like_phases ctx, None)
  | Flat -> (flat_phases ctx, None)
  | Fusemax -> (fusemax_phases ctx, None)
  | Fusemax_layerfuse -> fused_phases layerfuse_choice ?tiling ~tileseek_iterations ctx
  | Transfusion -> fused_phases transfusion_choice ?tiling ~tileseek_iterations ctx


(* The execution a priced strategy serves: TransFusion's only. *)
let priced_execution strategy priced =
  match (strategy, priced) with
  | Transfusion, Some (st, config) -> Some (execution st config)
  | _ -> None

let phases ?tiling ?tileseek_iterations ?attention ?include_ffn ?layers arch w strategy =
  let ctx = make_ctx ?attention ?include_ffn ?layers arch w in
  let phase_list, priced = priced_phases ?tiling ?tileseek_iterations ctx strategy in
  (phase_list, Option.map snd priced, priced_execution strategy priced)

let result_of ctx strategy phase_list tiling : result =
  let arch = ctx.arch in
  let latency = Latency.evaluate arch phase_list in
  let traffic = Traffic.sum (List.map (fun (p : Phase.t) -> p.Phase.traffic) phase_list) in
  let energy = Energy.of_traffic arch traffic in
  { strategy; arch; workload = ctx.w; attention = ctx.attention; latency; energy; traffic; tiling }

let evaluate ?tiling ?tileseek_iterations ?attention ?layers ?objective arch w strategy =
  Tf_obs.Trace.with_span ~cat:"strategy"
    ~args:
      [
        ("strategy", name strategy);
        ("arch", arch.Arch.name);
        ("model", w.Workload.model.Model.name);
        ("seq", string_of_int w.Workload.seq_len);
      ]
    "strategy.evaluate"
  @@ fun () ->
  let ctx = make_ctx ?attention ?layers ?objective arch w in
  let phase_list, priced = priced_phases ?tiling ?tileseek_iterations ctx strategy in
  (result_of ctx strategy phase_list (Option.map snd priced), priced_execution strategy priced)

let search ?(iterations = 200) ?seed ?probe ?attention arch w =
  let ctx = make_ctx ?attention arch w in
  let st = make_eval_state ctx in
  let config, stats = search_state transfusion_choice ?seed ?probe ~iterations st in
  ( result_of ctx Transfusion [ choice_phase (transfusion_choice st config) ] (Some config),
    execution st config,
    stats )

let speedup ~baseline r = baseline.latency.Latency.total_s /. r.latency.Latency.total_s

let energy_ratio ~baseline r =
  Energy.total_pj r.energy /. Energy.total_pj baseline.energy

module Private = struct
  let arch_fingerprint = arch_fingerprint

  (* Hot-path probes for the microbenches and the scorer-equivalence
     tests.  [transfusion_scorer] prebuilds the evaluation state, so
     every call pays the true per-candidate scoring cost;
     [transfusion_cost_reference] is
     the cold path through full phase construction, [Latency.evaluate]
     and [Traffic.sum] — the two must agree bit for bit. *)
  let transfusion_scorer arch w =
    let st = make_eval_state (make_ctx arch w) in
    score transfusion_choice st

  let cold_phase ctx config = choice_phase (transfusion_choice (make_eval_state ctx) config)

  let transfusion_cost_reference arch w config =
    let ctx = make_ctx arch w in
    tiling_cost ctx [ cold_phase ctx config ]

  let transfusion_phase_cold arch w config =
    cold_phase (make_ctx arch w) config
end
