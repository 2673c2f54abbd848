(** Policy-comparison experiment: the shipped admission policies across
    load levels on a shared seeded trace family.

    Load is expressed relative to the accelerator's {e estimated}
    service capacity — [capacity / mean single-request latency], the
    optimistic bound where batching is free — so the same experiment
    stresses any (arch, model, class-mix) combination sensibly: the low
    level (20% of the bound) leaves the queue near-empty, the high
    level (70%) forces sustained queueing, which is where the policies
    separate.  This is the committed figure behind the acceptance
    criterion that continuous batching beats static batching on p95
    TTFT at high load. *)

type point = {
  load : string;  (** ["low" | "high"] *)
  rate_qps : float;
  report : Simulator.report;
}

val service_rate : costs:Costs.t -> classes:Traffic.cls list -> capacity:int -> float
(** The optimistic service-capacity estimate (requests/s):
    [capacity / mean weighted single-request latency]. *)

val sweep :
  ?seed:int ->
  ?n:int ->
  ?capacity:int ->
  ?classes:Traffic.cls list ->
  ?process:Traffic.process ->
  costs:Costs.t ->
  unit ->
  point list
(** {!Policy.all} x {low, high} load on traces of [n] requests (default 120)
    from the given arrival [process] (default bursty), seeded by [seed]
    (default 42).  Both loads reuse the same seed, so the comparison
    varies only what it claims to vary. *)

val to_json : costs:Costs.t -> point list -> Tf_json.t
(** [{schema, points: [<single-run report + load label>]}], schema
    ["transfusion.serving/1"]: each point carries the single-run report
    without per-request arrays. *)

val print : title:string -> point list -> unit
