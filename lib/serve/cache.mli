(** The daemon's two-tier schedule cache.

    Tier 1 is a bounded in-memory {!Tf_parallel.Memo} (fingerprint →
    rendered payload line) whose single-flight semantics are what makes
    N concurrent clients asking for the same key run the search exactly
    once.  Tier 2 is an optional on-disk store — one
    [transfusion.serve-cache/1] JSON file per fingerprint, named by it —
    so schedules survive restarts: a fresh process's memory tier starts
    empty and rehydrates byte-identical payloads from disk.

    Keys are structured JSON (for [schedule]:
    {!Tf_experiments.Exp_common.Key.to_json} plus an endpoint tag);
    the fingerprint is a digest of the compact rendering, so equal keys
    collide iff they are structurally equal.  Corrupt or half-written
    disk entries read as misses (counted in
    [serve.cache.disk_errors_total]), never as request failures. *)

type t

val create : ?max_entries:int -> ?dir:string -> unit -> t
(** [max_entries] bounds the memory tier (default 1024, LRU eviction —
    an evicted entry falls back to disk, then to recompute).  [dir],
    when given, enables the disk tier (created on the spot).  Hit/miss
    counters are published in the {!Tf_obs} registry:
    [memo.serve.schedule.*] for the memory tier,
    [serve.cache.disk_*_total] for the disk tier. *)

val fingerprint : Tf_json.t -> string
(** Hex digest of the compact rendering of a key document. *)

type tier = Memory | Disk | Computed
(** Which tier answered a lookup.  A waiter on an in-flight computation
    reads as [Memory] — it paid memo latency, not compute. *)

val tier_name : tier -> string
(** ["memory"] / ["disk"] / ["computed"] (the access-log vocabulary). *)

val find_or_compute :
  ?report:(fp:string -> tier:tier -> unit) ->
  t ->
  key_json:Tf_json.t ->
  (unit -> string) ->
  string
(** Memory tier, then disk tier, then [compute] (persisting the fresh
    payload to disk).  Concurrent callers of the same key wait for one
    computation; [compute]'s exceptions propagate and cache nothing.
    [report], when given, receives the key fingerprint and the
    answering tier (request correlation for the access log). *)

