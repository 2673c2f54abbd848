(** The daemon's two-tier schedule cache.

    Tier 1 is a bounded in-memory {!Tf_parallel.Memo} whose
    single-flight semantics are what makes N concurrent clients asking
    for the same key run the search exactly once.  Tier 2 is an optional
    on-disk store — one [transfusion.serve-cache/2] file per
    fingerprint, named by it — so schedules survive restarts: a fresh
    process's memory tier starts empty and rehydrates byte-identical
    payloads from disk.  An entry is three lines: a header naming the
    schema and the payload's length, the compact key document, and the
    payload bytes verbatim; a read checks that the key line digests to
    the file name.  It is the only format read: any other file under an
    entry's name is a wrong-schema entry (below).  A key names the
    request, not the build that answered it, so a directory is valid
    only for the build that wrote it.

    The memory tier is keyed on a request's compact typed
    {!Request.key}, and each entry stores the key's fingerprint next to
    its payload, so a memory hit renders no key document and computes no
    digest.  The fingerprint is a digest of the compact rendering of the
    key document ({!Request.key_json}), and typed keys are equal exactly
    when their documents are.  A bounded memo keeps the fingerprints of
    recent typed keys, so a memory miss answered by the disk tier renders
    and digests nothing either; the key document is rendered only to
    store an entry.  Callers holding only a key document use
    {!find_or_compute}, which keys the memory tier on its fingerprint.
    Corrupt, half-written or wrong-schema disk entries read as misses
    (counted in [serve.cache.disk_errors_total]), never as request
    failures. *)

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

val find_or_compute_key :
  report:(fp:string -> tier:tier -> unit) -> t -> Request.key -> (unit -> string) -> string
(** Memory tier, then disk tier, then [compute] (persisting the fresh
    payload to disk).  Concurrent callers of the same key wait for one
    computation; [compute]'s exceptions propagate and cache nothing.
    [report] receives the key fingerprint and the answering tier
    (request correlation for the access log). *)

val find_or_compute :
  ?report:(fp:string -> tier:tier -> unit) ->
  t ->
  key_json:Tf_json.t ->
  (unit -> string) ->
  string
(** {!find_or_compute_key} for a caller holding a key document (and
    perhaps no [report]): the memory tier is keyed on the document's
    {!fingerprint}, computed per call.  The disk entry, the counters and
    the reported fingerprint are those of the typed path for the same
    document; a cache should be driven through one of the two, since a
    key reached through both holds two memory entries over one disk
    file. *)
