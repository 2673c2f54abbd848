(** Domain-parallel evaluation engine (OCaml 5 [Domain]s, no dependencies).

    The evaluation pipeline — figure sweeps, DPipe candidate grids,
    TileSeek rollouts — is embarrassingly parallel: every task is a pure
    function of its inputs.  This module provides a lazily-started fixed
    pool of worker domains and an order-preserving chunked [map] over
    it, plus a mutex-protected memo table for the caches those tasks
    share.

    {b Determinism contract.}  For a pure [f], [map f] returns exactly
    the array the sequential [Array.map f] would return: results are
    written to their input slot, so order is preserved.  Parallel and
    sequential runs are therefore bit-identical.  Worker exceptions are
    re-raised in the caller; when several chunks fail, the exception of
    the earliest chunk in input order wins, matching what a sequential
    run would have raised first.

    {b Pool model.}  The pool holds [jobs () - 1] worker domains plus
    the calling domain, which participates in every batch.  Workers are
    spawned on first use and grow on demand (never shrink); an [at_exit]
    hook shuts them down so programs terminate cleanly.  The default
    size comes from the [TRANSFUSION_JOBS] environment variable when
    set (clamped to a sane range), otherwise
    [Domain.recommended_domain_count ()].  [TRANSFUSION_JOBS=1] — or
    [jobs:1] — degenerates to a plain sequential map in the calling
    domain, touching no pool state at all.

    Nested calls from inside a worker run sequentially (the pool does
    not recursively subdivide), so parallel callers may freely invoke
    code that itself uses [map]. *)

val jobs : unit -> int
(** The effective parallelism for the next [map]: the [set_jobs]
    override if one is active, else [TRANSFUSION_JOBS], else
    [Domain.recommended_domain_count ()].  Always at least 1. *)

val set_jobs : int -> unit
(** Override the job count for subsequent maps ([n >= 1]; values above
    the domain limit are clamped).  Intended for tests and CLI flags;
    prefer [TRANSFUSION_JOBS] for deployment. *)

val clear_jobs_override : unit -> unit
(** Drop the [set_jobs] override, restoring environment/default sizing. *)

val map : ?jobs:int -> ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map f arr] evaluates [f] on every element across the pool and
    returns the results in input order.  [?jobs] caps the parallelism
    for this call only; [?chunk] sets the number of consecutive
    elements claimed per work-steal (default: input split into roughly
    4 chunks per job for load balance — determinism never depends on
    it).  Exceptions raised by [f] propagate to the caller (earliest
    failing chunk wins); remaining chunks are abandoned. *)

val map_list : ?jobs:int -> ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map] over a list, preserving order. *)

val iter : ?jobs:int -> ?chunk:int -> ('a -> unit) -> 'a array -> unit
(** [map] whose results are discarded (cache-priming sweeps). *)

(** Mutex-protected, bounded LRU memo table for caches shared across
    domains — the one cache type the libraries keep beyond a single call.

    Lookups and insertions are serialized under one lock; the compute
    thunk runs {e outside} it, so distinct keys memoize concurrently.
    A key being computed is marked in-flight: other domains asking for
    the same key block on a condition variable until the computation
    settles, so each key's thunk runs {e at most once} — callers always
    observe the single canonical result (physical equality of repeated
    lookups holds) and side-effecting thunks are never duplicated.

    The {e settled} population is bounded: publishing an entry beyond
    the capacity evicts the least-recently-touched settled entry, in
    O(1).  In-flight computations never count toward the bound and are
    never evicted, so an evicted key simply recomputes on its next
    lookup.  Safe (and cheap) under [TRANSFUSION_JOBS=1] too. *)
module Memo : sig
  type ('k, 'v) t

  val create : ?name:string -> capacity:int -> unit -> ('k, 'v) t
  (** [capacity] bounds the settled entries.  [name], when given,
      publishes [memo.<name>.hits_total] / [memo.<name>.misses_total] /
      [memo.<name>.evictions_total] counters in the {!Tf_obs} registry;
      {!find_or_compute} and {!find_opt} count hits and misses,
      {!update} counts neither.
      @raise Invalid_argument when [capacity < 1]. *)

  val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
  (** [find_or_compute t k f] returns the cached value for [k],
      computing it with [f] on a miss.  Concurrent callers for the same
      key wait for the first computation instead of re-running [f].
      [f]'s exceptions propagate to the computing caller and nothing is
      cached; any waiters then retry the computation themselves.  A hit
      touches the entry (it becomes the most recently used). *)

  val find_opt : ('k, 'v) t -> 'k -> 'v option
  (** The settled value, touching it; [None] when absent or in flight
      (counted as a miss, but nothing is computed). *)

  val update : ('k, 'v) t -> 'k -> ('v option -> 'v) -> unit
  (** [update t k f] rebinds [k] to [f] of its settled value ([None]
      when absent) under the table lock, so concurrent writers of one
      key lose no update; it first waits if [k] is in flight.  The entry
      becomes the most recently used, and a new one may evict as a
      published computation does.  If [f] raises, the table is
      unchanged. *)

  val length : ('k, 'v) t -> int
  (** Settled entries (in-flight computations excluded). *)

  val evictions : ('k, 'v) t -> int
  (** Entries dropped by the capacity bound since creation. *)

  val clear : ('k, 'v) t -> unit
  (** Drop every settled entry.  In-flight computations still publish
      when they finish. *)

  (**/**)

  val residents : ('k, 'v) t -> ('k * 'v) list
  (** Settled entries, most recently used first, read without touching
      them — the LRU oracle test compares this with its model. *)
end
