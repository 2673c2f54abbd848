(** The three scheduling queries, the one code path behind both the
    one-shot CLI ([eval], [explain], [decode]) and the [transfusion
    serve] endpoints ([schedule], [explain], [decode]).

    Both front ends read the same {!Request} record, run the same
    function here and render its result as the same document: the CLI's
    [--json] the pretty form ({!Tf_json.to_string}), the daemon the
    compact one ({!Tf_json.to_line}); the CLI prints its human table
    from that one result.  [test_serve.ml] pins both renderings against
    the CLI binary. *)

val eval_schema : string
(** ["transfusion.eval/1"] — the schema tag of {!eval_doc} documents. *)

val result_json : Transfusion.Strategies.result -> Tf_json.t
(** One evaluated point as a [transfusion.eval/1] document: workload
    identity, latency (total and utilisations), energy breakdown,
    traffic record and the searched tiling (null for closed-form
    strategies). *)

val eval_doc :
  iterations:int ->
  Tf_arch.Arch.t ->
  Tf_workloads.Workload.t ->
  Transfusion.Strategies.t ->
  Tf_json.t
(** {!result_json} of the memoised, verified
    {!Tf_experiments.Exp_common.evaluate} at a TileSeek budget of
    [iterations].
    @raise Failure when the result fails verification. *)

val schedule :
  Request.Schedule.t -> Transfusion.Strategies.result * Transfusion.Strategies.execution option
(** The verified evaluation outside every memo
    ({!Tf_experiments.Exp_common.evaluate_execution}), with the execution
    it was priced with; its document is {!result_json} of the result.
    The CLI's [eval] reads the execution for [--sim-trace]; the daemon
    keeps only the rendered payload, in its own cache, so the answer is
    not stored a second time in the summary memo.  Its document equals
    {!eval_doc}'s for the same request.
    @raise Failure when the result fails verification. *)

val explain : Request.Explain.t -> Tf_report.Explain.t
(** {!Tf_report.Explain.run} (causal self-attention when [causal]);
    its document is {!Tf_report.Explain.to_json}. *)

val decode : Request.Decode.t -> Tf_experiments.Exp_generation.point list
(** {!Tf_experiments.Exp_generation.sweep} over the request's one
    architecture; its document is {!Tf_experiments.Exp_generation.to_json}. *)

val payload_costs : string -> float * float
(** [(latency_total_s, energy_total_pj)] parsed back out of a rendered
    {!eval_doc} line — the endpoints a bucketed response lerps between.
    @raise Tf_json.Bad_json on a non-eval payload. *)
