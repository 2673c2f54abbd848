(** Closed-form evaluation of an autoregressive generation
    ({!Tf_workloads.Generation}) under one scheduling strategy.

    A generation is a prefill pass (the prompt under causal
    self-attention — its latency is the time to first token) followed by
    [gen] single-token decode steps ({!Strategies.attention}'s [Decode]
    flavour) whose cache grows from [prompt] to [prompt + gen].

    Scheduling reuses the existing machinery end to end — DPipe pipelines
    the decode-step cascade and TileSeek tiles it — but runs {e one}
    search per generation, not [gen]: the tiling is searched at the
    deepest cache (where the Table 2 budget binds), clamped with
    {!Tileseek.clamp_kv} so its key/value tile divides both cache
    endpoints, and reused at each.  Because every per-step cost is affine
    in the cache length [t] (the attention loop is linear in [t], all
    other work constant), the total over [t = prompt..prompt+gen] is the
    trapezoid sum [gen * (cost(first) + cost(last)) / 2] — exact for the
    affine costs, and within half of one token's marginal cost of the
    discrete sum in general.  (The latency roofline [max(compute_s,
    memory_s)] of {!Tf_costmodel.Latency} is piecewise affine in [t];
    when a phase crosses its compute/memory break between the endpoints
    the trapezoid is an upper bound — convexity — documented in DESIGN.md
    Section 10.) *)

type metrics = {
  spec : Tf_workloads.Generation.t;
  strategy : Strategies.t;
  prefill : Strategies.result;  (** causal prefill over the prompt *)
  first : Strategies.result;  (** decode step at cache length [prompt] *)
  last : Strategies.result;  (** decode step at cache length [prompt + gen] *)
  decode_tiling : Tileseek.config option;
      (** the clamped tiling shared by both endpoint evaluations
          (searching strategies only) *)
  ttft_s : float;  (** time to first token — the prefill latency *)
  token_s_first : float;  (** per-step latency at the shallow cache *)
  token_s_last : float;  (** per-step latency at the deep cache *)
  decode_s : float;  (** aggregate decode time over all [gen] steps *)
  total_s : float;  (** [ttft_s + decode_s] *)
  tokens_per_s : float;  (** [batch * gen / decode_s] — steady throughput *)
  decode_energy : Tf_costmodel.Energy.breakdown;  (** all decode steps *)
  energy_per_token_pj : float;  (** [decode_energy / (batch * gen)] *)
  total_energy_pj : float;  (** prefill + decode *)
}

type executions = {
  prefill_exec : Strategies.execution option;
  first_exec : Strategies.execution option;
  last_exec : Strategies.execution option;
}
(** The executions {!Strategies.evaluate} returned beside [prefill],
    [first] and [last] ([None] for the strategies without one). *)

val evaluate :
  ?tileseek_iterations:int ->
  Tf_arch.Arch.t ->
  Tf_workloads.Generation.t ->
  Strategies.t ->
  metrics * executions
(** Cost the full generation: prefill, one decode search at the deep
    endpoint, clamped-tiling evaluations at both endpoints, closed-form
    aggregation; with the three evaluations' executions, for
    verification.  Instrumented with Tf_obs ([decode.evaluations_total],
    [decode.tokens_total], [decode.searches_saved_total] and a
    [decode.evaluate] trace span). *)
