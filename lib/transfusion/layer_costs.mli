(** Whole-layer compute loads, derived from the cascade IR.

    For one Transformer layer of a workload (full batch, full sequence),
    every cascade operation has a total compute load obtained by
    multiplying its per-instance load (Eq. 40 under tile extents) by its
    instance count:

    - operations of the MHA loop body (and the per-[m0]-tile K/V
      projections) run once per key/value tile, i.e. [seq/m0] times;
    - the final normalisation [AV] and the remaining operations run once
      per sequence pass;
    - everything is multiplied by the batch size.

    Totals of the {e matrix} class (contractions) land on the 2D array
    natively; {e vector} totals (maps/reduces) on the 1D array.  These
    totals are tiling-invariant except through [m0] (smaller key/value
    tiles mean more running-state updates — a real cost of the 1-pass
    dataflow). *)

type loads = { matrix : float; vector : float }

val add_loads : loads -> loads -> loads
val zero : loads

val tile_extents : Tf_workloads.Workload.t -> m0:int -> Tf_einsum.Extents.t
(** The extent environment totals are computed under: full model dims,
    full sequence for [p], and the given key/value tile for [m0]. *)

val nominal_epochs : float
(** 256: DPipe node loads are whole-layer totals spread over this many
    epochs.  The extrapolated layer cost is epoch-count invariant to
    first order, so the scale divides out of every ratio. *)

(** The op table over any number domain, written once: {!op_totals} and
    {!problem} are its {!Num_domain.Float} instance, and the range
    certifier instantiates it at [Tf_analysis.Symexpr]. *)
module Table (N : Num_domain.S) : sig
  val row :
    batch:int ->
    m0:int ->
    extents:Tf_einsum.Extents.t ->
    seq:N.t ->
    kv_len:N.t ->
    kv_proj_len:N.t ->
    causal:bool ->
    Tf_einsum.Einsum.t ->
    N.t * N.t
  (** [(instances, total)] of an op, as {!op_totals} counts them, under
      {!tile_extents} [extents] with the query sequence [seq] as the
      extent of [p]: [total = instances × out × red × cost_factor]. *)

  val node_time : Tf_arch.Arch.t -> matrix:bool -> N.t -> Tf_arch.Arch.resource -> N.t
  (** A total's cycles per epoch on a resource: over {!nominal_epochs},
      then over the array's effective PEs ({!Dpipe.node_latency}). *)
end

type op_total = {
  op : Tf_einsum.Einsum.t;
  module_ : Tf_costmodel.Phase.layer_kind;  (** {!Cascades.module_of} [op] *)
  total : float;
  instances : float;
}

val op_totals :
  ?m0:int ->
  ?kv_len:int ->
  ?kv_proj_len:int ->
  ?causal:bool ->
  Tf_workloads.Workload.t ->
  Tf_einsum.Cascade.t ->
  op_total list
(** Per-operation totals for one layer of the workload.  [m0] defaults to
    the workload's balanced split.  [kv_len] is the key/value sequence
    length (defaults to the workload's own sequence — pass the encoder
    length for cross-attention sublayers).  [kv_proj_len] is the number of
    key/value positions actually {e projected} this pass (defaults to
    [kv_len]); a decode step projects one fresh position while attending
    over the whole resident cache, so its per-tile K/V projections get a
    fractional [kv_proj_len / m0] instance count.  [causal] halves the
    attention-loop work: a masked decoder query attends on average to
    half the keys.  Operation order follows the cascade.
    @raise Invalid_argument for an op of no Table 2 module. *)

val loads : op_total list -> loads
(** The matrix and vector totals of the rows, summed in row order. *)

(** The DPipe problem of [cascade]: its DAG and the DAG's {!Dpipe.plan},
    node totals under {!op_totals} and the [load]/[matrix] oracles
    {!Dpipe.schedule} takes.
    Every DPipe run over a workload builds it here;
    {!Strategies.layer_problem} picks the arguments for a layer. *)
type problem = {
  cascade : Tf_einsum.Cascade.t;
  extents : Tf_einsum.Extents.t;  (** {!tile_extents} at the problem's [m0] *)
  totals : op_total array;  (** indexed by DAG node *)
  dag : Tf_einsum.Einsum.t Tf_dag.Dag.t;
  plan : Dpipe.plan;  (** of [dag]; problems of one cascade may share it *)
  load : int -> float;  (** node total / {!nominal_epochs} *)
  matrix : int -> bool;
}

val problem :
  ?m0:int ->
  ?kv_len:int ->
  ?kv_proj_len:int ->
  ?causal:bool ->
  Tf_workloads.Workload.t ->
  Tf_einsum.Cascade.t ->
  problem
(** The problem of [cascade] under {!op_totals} (same arguments). *)

val of_totals :
  Tf_einsum.Cascade.t ->
  dag:Tf_einsum.Einsum.t Tf_dag.Dag.t ->
  plan:Dpipe.plan ->
  extents:Tf_einsum.Extents.t ->
  op_total list ->
  problem
(** The problem of [cascade] from its {!op_totals} rows, its DAG, the
    DAG's plan and its tile extents, for a caller that already holds
    them: every slice of a tiling search shares one plan per cascade. *)
