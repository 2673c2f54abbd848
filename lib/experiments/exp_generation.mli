(** Autoregressive generation experiment: TTFT, per-token latency,
    throughput and energy/token for prompt+generate workloads
    ({!Tf_workloads.Generation}) across architectures, models and the
    prompt-length sweep.

    Each point is a full {!Transfusion.Decode.evaluate} — one prefill,
    one decode-step search, closed-form aggregation — and every fresh
    result is verified ({!Tf_analysis.Verify.strategy_result}, with the
    execution it was priced with) before it is reported, mirroring the
    figure experiments' discipline. *)

type point = {
  arch : string;
  metrics : Transfusion.Decode.metrics;
  executions : Transfusion.Decode.executions;
      (** the verified executions, for a reader of the schedules such as
          [decode --sim-trace] *)
}

val default_strategies : Transfusion.Strategies.t list
(** FuseMax and TransFusion — the serving-relevant pair. *)

val point :
  ?tileseek_iterations:int ->
  Tf_arch.Arch.t ->
  Tf_workloads.Generation.t ->
  Transfusion.Strategies.t ->
  point
(** One verified generation evaluation.
    @raise Failure when any constituent result fails verification. *)

val sweep :
  ?quick:bool ->
  ?gen:int ->
  ?batch:int ->
  ?strategies:Transfusion.Strategies.t list ->
  ?tileseek_iterations:int ->
  Tf_arch.Arch.t list ->
  Tf_workloads.Model.t list ->
  point list
(** The (arch x model x prompt x strategy) grid over the paper's
    sequence sweep as prompt lengths ([quick] keeps {1K, 16K, 256K}),
    evaluated across the domain pool.  [gen] and [batch] default to
    {!Tf_workloads.Generation.v}'s defaults (512 tokens, batch 16). *)

val schema : string
(** The [schema] field value of {!to_json} documents:
    ["transfusion.generation/1"] (see EXPERIMENTS.md). *)

val to_json : point list -> Tf_json.t
(** [{schema, points: [{arch, model, strategy, prompt, gen, batch,
    ttft_s, token_s_first, token_s_last, decode_s, total_s,
    tokens_per_s, energy_per_token_pj, decode_energy_pj,
    total_energy_pj, decode_tiling}]}]. *)

val print : title:string -> point list -> unit
