(** Per-request serving costs, memoised per {e shape}.

    The simulator needs, for every request, the prefill latency (TTFT),
    the per-token decode latency at both cache endpoints (the affine
    law PR 4 established) and the energy totals.  All of that comes
    from one verified {!Tf_experiments.Exp_generation.point} of the
    request's (prompt, gen) class at batch 1 — which runs TileSeek
    searches, so calling it per {e request} would make a 10k-request
    simulation pay 10k searches for a handful of distinct shapes.  This
    module routes every lookup through a bounded {!Tf_parallel.Memo}
    ([memo.serving.decode.*] counters), so a simulation pays
    O(distinct classes) evaluations, not O(requests).

    Optionally a {!Tf_serve.Cache} adds the daemon's two-tier
    persistence: computed class costs are rendered as one
    [transfusion.serving-cost/1] payload line keyed by a structured
    JSON key (arch fingerprint, full model record, class, strategy,
    budget) and survive restarts.  Floats round-trip through the disk
    tier {e exactly} (hexadecimal [%h] encoding), so a rehydrated cost
    is bit-identical to a computed one and the simulator's reports stay
    byte-identical across cold and warm runs. *)

type per_request = {
  ttft_s : float;  (** prefill latency ({!Transfusion.Decode.metrics}) *)
  token_s_first : float;  (** per-token latency at cache [prompt] *)
  token_s_last : float;  (** per-token latency at cache [prompt + gen] *)
  decode_s : float;  (** closed-form (trapezoid) total decode time *)
  prefill_energy_pj : float;
  energy_per_token_pj : float;
  decode_energy_pj : float;
}

type t

val create :
  ?max_entries:int ->
  ?cache:Tf_serve.Cache.t ->
  ?strategy:Transfusion.Strategies.t ->
  ?iterations:int ->
  Tf_arch.Arch.t ->
  Tf_workloads.Model.t ->
  t
(** [max_entries] bounds the shape memo (default 512, LRU);
    [cache], when given, persists computed class costs through the
    serve daemon's two-tier store.  [strategy] defaults to TransFusion,
    [iterations] to 60 (the serving-scale TileSeek budget). *)

val costs : t -> cls:Traffic.cls -> per_request
(** The class's per-request costs — memoised; the first lookup of a
    shape runs {!Tf_experiments.Exp_generation.point} at batch 1.
    @raise Failure when the evaluation fails or fails verification. *)

val token_s : per_request -> gen:int -> i:int -> float
(** Per-token latency of the step producing token [i] (1-based) of a
    [gen]-token generation: the affine interpolation
    [(1-u) * first + u * last] with [u = (i-1)/(gen-1)] — exactly
    [token_s_first] at [i = 1] and [token_s_last] at [i = gen]
    (bit-for-bit, which the differential test pins).  [token_s_first]
    when [gen = 1]. *)

val fits : t -> batch:int -> kv:int -> bool
(** Whether a decode batch of [batch] sequences fits the buffer when
    its deepest member attends over [kv] cached positions: the greedy
    decode tiling's Table-2 residency, including the in-flight KV-cache
    tile ({!Transfusion.Buffer_req.fits_decode} inside
    {!Transfusion.Tileseek.feasible} [~decode:true]).  Memoised per
    [(batch, kv)] ([memo.serving.feasible.*] counters, 4096 entries) —
    policy comparisons hammer the same lattice. *)

val arch : t -> Tf_arch.Arch.t
val model : t -> Tf_workloads.Model.t
val strategy : t -> Transfusion.Strategies.t
val iterations : t -> int

val stats : t -> int * int * int
(** [(entries, evictions, computes)] of the shape memo — the churn and
    hit-counter tests pin these. *)
