(** The five evaluated schedulers (paper Section 6.1).

    - [Unfused]: every module runs to completion with all intermediates
      (including the quadratic attention scores) written to off-chip
      memory; matrix work on the 2D array then vector work on the 1D
      array, never overlapped.
    - [Flat]: the attention layer is fused on-chip (no score traffic),
      everything else as Unfused; no pipelining, softmax entirely on the
      1D array.
    - [Fusemax]: attention fused {e and} pipelined with the static FuseMax
      mapping (per-tile matmuls and partial softmax on the 2D array,
      cross-tile running-state updates on the 1D array, in-register
      retention of intermediates); other modules as Unfused.
    - [Fusemax_layerfuse]: the paper's ablation — FuseMax plus inter-layer
      fusion of the whole stack (activations propagate on-chip; K/V round
      trip through DRAM per layer; weights stream per outer tile), but no
      DPipe: modules execute sequentially inside each tile.
    - [Transfusion]: full-stack fusion with DPipe pipelining over the
      29-operation fused-layer DAG and TileSeek-selected outer tiling.

    All five produce {!Tf_costmodel.Phase.t} lists evaluated by the same
    latency/energy model, mirroring how the paper runs every baseline
    through its own Timeloop/Accelergy pipeline.

    Modeling notes (documented deviations are listed in DESIGN.md):
    weight/activation DRAM traffic for large matmuls follows the tiled
    I/O model [2*R*D*C/sqrt(buffer)] once the working set exceeds the
    buffer; FLAT's attention uses the same streaming-tile memory model as
    FuseMax (its row-granularity working set would not fit long
    sequences), so the FLAT-vs-FuseMax gap is pipelining, as in the
    paper's own framing. *)

type t = Unfused | Flat | Fusemax | Fusemax_layerfuse | Transfusion

type attention = Self | Causal_self | Cross of { kv_len : int } | Decode of { kv_len : int }
(** Attention flavour of the evaluated layers.  [Self] is the default
    (encoder); [Causal_self] is masked decoder self-attention (half the
    attention-loop work on average); [Cross kv_len] attends over an
    encoder output of the given length (paper Section 3.2's
    shape-consistent composition of encoders, decoders and hybrids);
    [Decode kv_len] is one autoregressive decode step against a resident
    KV cache of [kv_len] positions — the workload's own (usually
    single-position) sequence is projected and appended to the cache,
    while MHA attends over all [kv_len] cached positions.  At
    [kv_len = seq_len] the Decode cost model degenerates exactly to
    [Cross]: same projections, same attention, same tiling space, except
    that TileSeek feasibility additionally charges the in-flight cache
    tile ({!Buffer_req.fits_decode}). *)

type attention_dims = {
  kv_len : int;  (** key/value sequence length *)
  kv_proj_len : int;  (** key/value positions projected (decode: the query's) *)
  causal : bool;
  decode : bool;
}

val attention_dims : ?attention:attention -> Tf_workloads.Workload.t -> attention_dims
(** What an attention flavour (default [Self]) means for one layer: the
    one derivation shared by the strategies, verifier, certifier and
    report.  @raise Invalid_argument when [kv_len < 1]. *)

val attention_name : attention -> string
(** The flavour as reports and diagnostics name it: [self], [causal],
    [cross(kv=N)] or [decode(kv=N)]. *)

val layer_problem : ?attention:attention -> Tf_workloads.Workload.t -> Layer_costs.problem
(** The DPipe problem TransFusion schedules: {!Cascades.full_layer} at the
    default inner tile, the balanced split of the key/value length (a
    searched tiling's own problem is in its {!execution}). *)

type objective = Latency_obj | Energy_obj | Edp_obj
(** TileSeek reward (paper Section 5.1: "the resulting energy or latency
    can serve as the reward signal").  [Edp_obj] is the energy-delay
    product. *)

type result = {
  strategy : t;
  arch : Tf_arch.Arch.t;
  workload : Tf_workloads.Workload.t;
  latency : Tf_costmodel.Latency.t;
  energy : Tf_costmodel.Energy.breakdown;
  traffic : Tf_costmodel.Traffic.t;
  attention : attention;  (** the flavour the result was priced for *)
  tiling : Tileseek.config option;  (** the searching strategies only *)
}

val all : t list
(** In paper order: Unfused, FLAT, FuseMax, FuseMax+LayerFuse, TransFusion. *)

val name : t -> string
val of_name : string -> t option

type layer_choice = { served : [ `Dpipe | `Static ]; dpipe_cycles : float; static_cycles : float }
(** Per-layer makespans (cycles) of the DPipe schedule and of the static
    layer-sequential execution, and the one TransFusion serves: DPipe
    unless static is strictly faster (its greedy DP occasionally loses a
    percent on chunky DAGs). *)

type scheduled = {
  problem : Layer_costs.problem;  (** built from the evaluation's op table *)
  schedule : Dpipe.t Lazy.t;  (** {!Dpipe.schedule} of [problem] *)
}
(** One DPipe run a strategy priced.  The run that computed the priced
    summary keeps its schedule; where the shared DPipe memo answered
    instead, forcing [schedule] runs {!Dpipe.schedule} once more. *)

type execution = {
  layer : layer_choice;
  dpipe : scheduled;  (** the fused layer ({!Cascades.full_layer}) at the tiling's [m0] *)
  static_mha : scheduled option;
      (** the MHA cascade pinned by {!fusemax_assign}, around which the
          static alternative runs the other modules sequentially; [Some]
          exactly when [layer.served = `Static] *)
}
(** The per-layer execution a TransFusion result was priced with.  Only
    {!evaluate} and {!search} return one, beside the result: the result
    types hold no schedule, so no cache of results holds one either. *)

val phases :
  ?tiling:Tileseek.config ->
  ?tileseek_iterations:int ->
  ?attention:attention ->
  ?include_ffn:bool ->
  ?layers:int ->
  Tf_arch.Arch.t ->
  Tf_workloads.Workload.t ->
  t ->
  Tf_costmodel.Phase.t list * Tileseek.config option * execution option
(** Whole-model phase list, the tiling of the searching strategies and,
    for [Transfusion] (only), the execution it was priced with.
    [tiling] overrides TileSeek for TransFusion; [tileseek_iterations]
    defaults to 200.
    [attention], [include_ffn] and [layers] select the sublayer flavour
    for encoder/decoder composition (see {!Structures}); the defaults
    evaluate the standard self-attention encoder stack of the model. *)

val evaluate :
  ?tiling:Tileseek.config ->
  ?tileseek_iterations:int ->
  ?attention:attention ->
  ?layers:int ->
  ?objective:objective ->
  Tf_arch.Arch.t ->
  Tf_workloads.Workload.t ->
  t ->
  result * execution option
(** The strategy's whole-model result, and for [Transfusion] (only) the
    execution of the tiling it serves. *)

val search :
  ?iterations:int ->
  ?seed:int ->
  ?probe:(Tileseek.probe -> unit) ->
  ?attention:attention ->
  Tf_arch.Arch.t ->
  Tf_workloads.Workload.t ->
  result * execution * Mcts.stats
(** The TransFusion tiling search exactly as {!evaluate} runs it: one
    {!Tileseek.search} scored by the production TransFusion cost (latency
    plus the 0.02 x memory-time tie-break), over the key/value sequence
    and decode buffer model that [attention] implies; then the result
    and execution of the tiling it found.  [iterations] defaults to 200 and [seed] to
    {!Tileseek.search}'s, so at the defaults the result is the one
    [evaluate ~attention arch w Transfusion] returns; [seed] and the
    observational [probe] are for the callers that report the search
    itself ([transfusion search], [Tf_report.Explain.run]). *)

val fusemax_assign : Tf_arch.Arch.t -> Tf_einsum.Cascade.t -> int -> Tf_arch.Arch.resource
(** FuseMax's static PE-array assignment for the nodes of [cascade]'s
    DAG — the [`Static] mode the FuseMax strategies schedule their
    attention with: matmuls on the 2D array, per-tile partial softmax on
    the array with the higher vector throughput, cross-tile running-state
    updates on the 1D array. *)

val speedup : baseline:result -> result -> float
(** [baseline.latency.total_s / r.latency.total_s]. *)

val energy_ratio : baseline:result -> result -> float
(** Energy of [r] relative to the baseline (< 1 is better). *)

val pp_name : t Fmt.t

val reset_registries : unit -> unit
(** Drop the memoised DPipe schedules — cache hygiene for long-running
    processes and determinism harnesses.  The memo is an accelerator
    only, so clearing it never changes any result. *)

(**/**)

(* Test-only access. *)
module Private : sig
  val arch_fingerprint : Tf_arch.Arch.t -> string
  (** The architecture identity used to key the shared DPipe cache and
      every result cache: every field of {!Tf_arch.Arch.t}, the array
      shapes and the energy table included.  Distinguishes any two archs
      whose parameters differ, even when they share a [name] (ablation
      variants do). *)

  val transfusion_scorer :
    Tf_arch.Arch.t ->
    Tf_workloads.Workload.t ->
    Tileseek.config ->
    float
  (** The TileSeek candidate scorer with its evaluation state prebuilt:
      each application to a config pays exactly one scalar candidate
      evaluation (the microbench probe), as in a search, where
      {!Tileseek.search}'s config memo is the only memo in front of it.
      Partial application builds the state once. *)

  val transfusion_cost_reference :
    Tf_arch.Arch.t ->
    Tf_workloads.Workload.t ->
    Tileseek.config ->
    float
  (** The same cost through the cold path — phase construction, the full
      latency model and summed traffic.  Bit-identical to
      {!transfusion_scorer} by construction; tests enforce it. *)

  val transfusion_phase_cold :
    Tf_arch.Arch.t ->
    Tf_workloads.Workload.t ->
    Tileseek.config ->
    Tf_costmodel.Phase.t
  (** One TransFusion phase built from a fresh evaluation state (slice
      derivation included) — the construction-cost microbench probe. *)
end
