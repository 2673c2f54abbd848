(** Deterministic discrete-event simulation of one accelerator serving a
    traffic trace.

    {b Event model.}  Virtual time advances only through costed work:
    each admitted request pays its class's prefill latency (prefills run
    exclusively — the accelerator is not decoding while it prefills, the
    stall the interleaved policy bounds), and the running batch then
    advances one token per {e decode step}, whose duration is the
    maximum per-token latency over its members (decode batching is
    gated by the slowest member; per-token latency follows PR 4's
    affine-in-cache law via {!Costs.token_s}).  At every step boundary
    the engine ingests arrivals, asks the {!Policy} how many queued
    requests to admit (clamped to capacity and KV feasibility), and
    evicts the most-recently-admitted members while the grown KV cache
    makes the batch infeasible ({!Transfusion.Buffer_req.fits_decode}
    through a bounded memo) — evicted requests requeue at the {e front}
    retaining their progress.  The engine always admits at least one
    request into an idle accelerator, so no policy can deadlock it.

    {b Determinism.}  The trace is a pure function of its seed
    ({!Traffic}); the engine is sequential and consumes only memoised
    closed-form costs, whose values are identical under any
    [TRANSFUSION_JOBS] ({!Tf_parallel}'s contract) and across disk-cache
    rehydration ({!Costs}'s hex round-trip).  Same seed + policy + load
    therefore yields byte-identical reports and traces anywhere.

    Instrumented with {!Tf_obs}: [serving.requests_total],
    [serving.completions_total], [serving.preemptions_total],
    [serving.steps_total] and a [serving.batch_size] histogram. *)

type event =
  | Prefill of { t0 : float; t1 : float; id : int }
  | Step of { t0 : float; t1 : float; members : (int * int) list }
      (** one decode token for every member; [members] pairs request ids
          with the cache length the step attends over, sorted by id *)
  | Preempt of { t : float; id : int }
      (** evicted back to the queue front (progress retained) *)
  | Finish of { t : float; id : int }

type record = {
  req : Traffic.request;
  admitted_s : float;  (** first admission *)
  first_token_s : float;  (** end of prefill; TTFT = this - arrival *)
  finish_s : float;
  n_steps : int;  (** decode steps participated in (= [gen]) *)
  preemptions : int;
  energy_pj : float;  (** prefill + [gen] tokens, closed form *)
}

type dist = { p50 : float; p95 : float; p99 : float; mean : float; max : float }
(** Nearest-rank percentiles; all zero for an empty population. *)

type report = {
  policy : string;
  capacity : int;
  trace : Traffic.t;
  completed : record list;  (** sorted by request id *)
  unfinished : int list;  (** ids not completed at the horizon, sorted *)
  events : event list;  (** in simulation order *)
  queue_depth : (float * int) list;  (** samples at event boundaries *)
  makespan_s : float;  (** virtual time at the last event *)
  busy_s : float;  (** accelerator-occupied time (prefill + steps) *)
  pe_utilization : float;  (** [busy_s / makespan_s] *)
  mean_batch : float;  (** duration-weighted decode batch size *)
  preemptions : int;
  steps : int;
  ttft : dist;  (** over completed requests, seconds *)
  tpot : dist;  (** per-request mean time per output token, seconds *)
  energy_per_request_pj : float;  (** mean over completed requests *)
  queue_depth_max : int;
  queue_depth_mean : float;  (** time-weighted *)
}

val run :
  ?horizon_s:float ->
  ?capacity:int ->
  costs:Costs.t ->
  policy:Policy.t ->
  Traffic.t ->
  report
(** Simulate the trace to completion (or to [horizon_s] of virtual
    time).  [capacity] (default 16) bounds the decode batch.
    @raise Invalid_argument when [capacity < 1] or a single request of
    the trace's deepest class cannot fit the accelerator's buffer even
    alone — no policy could serve that trace. *)

val to_json : ?per_request:bool -> costs:Costs.t -> report -> Tf_json.t
(** The [transfusion.serving/1] report document; [per_request] (default
    true) includes the per-request array (the policy-comparison
    experiment drops it). *)

val percentile : float list -> p:float -> float
(** Nearest-rank percentile ([p] in [0..100]; 0 on the empty list) —
    exposed for tests. *)
