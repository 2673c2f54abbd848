(** Shared response-payload builders: the single code path behind both
    the one-shot CLI JSON outputs and the [transfusion serve] endpoints.

    Bit-identity between a daemon response and the equivalent CLI
    invocation is a construction property, not a testing aspiration:
    both call the same builder here, and the differential test in
    [test_serve.ml] pins the bytes. *)

val eval_schema : string
(** ["transfusion.eval/1"] — the schema tag of {!eval_doc} documents. *)

val result_json : Transfusion.Strategies.result -> Tf_json.t
(** One evaluated point as a [transfusion.eval/1] document: workload
    identity, latency (total and utilisations), energy breakdown,
    traffic record and the searched tiling (null for closed-form
    strategies). *)

val eval_doc :
  ?iterations:int ->
  Tf_arch.Arch.t ->
  Tf_workloads.Workload.t ->
  Transfusion.Strategies.t ->
  Tf_json.t
(** {!result_json} of the memoised, verified
    {!Tf_experiments.Exp_common.evaluate} ([iterations] defaults to
    200).  The [schedule] endpoint and [eval --json] both ride on this.
    @raise Failure when the result fails verification. *)

val explain_doc :
  ?iterations:int ->
  ?seed:int ->
  ?causal:bool ->
  Tf_arch.Arch.t ->
  Tf_workloads.Workload.t ->
  Tf_json.t
(** The [transfusion.explain/1] document of
    {!Tf_report.Explain.run} — same defaults as the CLI ([iterations]
    200, [seed] 42, encoder self-attention). *)

val decode_doc :
  ?quick:bool ->
  ?gen:int ->
  ?batch:int ->
  ?strategies:Transfusion.Strategies.t list ->
  ?iterations:int ->
  Tf_arch.Arch.t ->
  Tf_workloads.Model.t list ->
  Tf_json.t
(** The [transfusion.generation/1] document of
    {!Tf_experiments.Exp_generation.sweep} over one architecture — the
    [decode --json] code path.  [strategies] defaults (also on an
    explicit empty list) to FuseMax and TransFusion; [gen]/[batch]
    default to the CLI's 512/16. *)

val payload_costs : string -> float * float
(** [(latency_total_s, energy_total_pj)] parsed back out of a rendered
    {!eval_doc} line — the endpoints a bucketed response lerps between.
    @raise Tf_json.Bad_json on a non-eval payload. *)
