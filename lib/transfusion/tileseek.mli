(** TileSeek: MCTS search over outer tiling factors (paper Section 5).

    A configuration fixes the resident tile along every outer dimension of
    the fused stack — [B, D, M1, P, S] plus the inner key/value split
    [M0] — i.e. how data blocks move from off-chip memory into the on-chip
    buffer.  Feasibility is the Table 2 buffer model ({!Buffer_req});
    quality is whatever cost the caller's [evaluate] returns (latency,
    energy, or EDP of the resulting full schedule — the Timeloop/Accelergy
    role in the paper).  Infeasible configurations receive zero reward, so
    the search is pruned toward the implementable region. *)

type config = {
  b : int;  (** batch tile *)
  d : int;  (** model-dimension slice *)
  p : int;  (** query-sequence tile *)
  m1 : int;  (** resident outer key/value tiles *)
  m0 : int;  (** inner key/value tile *)
  s : int;  (** FFN-hidden slice *)
}

val pp_config : config Fmt.t
(** [b=.. d=.. p=.. m1=.. m0=.. s=..] — the one text form of a tiling. *)

val thin : int -> 'a list -> 'a list
(** [thin keep l] reduces [l] to at most [keep] evenly spread elements
    (first and last always survive for [keep >= 2]); [keep = 1] keeps
    the first element, [keep <= 0] keeps none.  Exposed for tests —
    this is how the divisor menus are bounded. *)

val p_row : Tf_arch.Arch.t -> config -> int
(** P': intra-tile sequence length per PE row — [p / rows(2D array)],
    at least 1 (paper Section 5.2). *)

val dims : ?kv_len:int -> Tf_arch.Arch.t -> Tf_workloads.Workload.t -> config -> Buffer_req.dims

val feasible : ?kv_len:int -> ?decode:bool -> Tf_arch.Arch.t -> Tf_workloads.Workload.t -> config -> bool
(** Table 2 check against the architecture's buffer.  [kv_len] (default:
    the workload's sequence) is the key/value sequence the [m1*m0] slice
    must divide — the cache length for a decode step; [decode] (default
    false) additionally charges the in-flight KV-cache tile
    ({!Buffer_req.fits_decode}).  {!greedy} and {!search} take the same
    two parameters with the same meaning: the query-tile menu stays bound
    to the workload's own (query) sequence while the key/value-tile menus
    follow [kv_len].  {!fallback}, {!greedy_variants} and {!pareto}
    search the workload's own sequence without the decode charge. *)

val clamp_kv : config -> kv_len:int -> config
(** Shrink [m0] (and then [m1]) by halving until [m0] and [m1*m0] divide
    [kv_len] — how a tiling searched at one cache depth is reused at
    another.  Identity when the tiles already divide [kv_len].
    @raise Invalid_argument on non-positive [kv_len]. *)

val fallback : Tf_arch.Arch.t -> Tf_workloads.Workload.t -> config
(** The minimal configuration, the first option of every factor's menu:
    the point every greedy walk and every {!seeds} completion grows from.
    @raise Invalid_argument if even the minimal configuration does not
    fit. *)

val greedy : ?kv_len:int -> ?decode:bool -> Tf_arch.Arch.t -> Tf_workloads.Workload.t -> config
(** A hand-heuristic tiling without search: grow each factor (query tile
    first, then the key/value tile, the model-dimension and FFN slices,
    [m1], the batch tile) to the largest feasible option.  The serving
    cost table tests with it whether a batch fits a cache length, and
    the range certifier certifies the tiling it gives. *)

val greedy_variants : Tf_arch.Arch.t -> Tf_workloads.Workload.t -> config list
(** The greedy growth orders (query-tile-first, key/value-tile-first, and
    balanced alternation); callers evaluate and keep the best. *)

val seeds :
  kv_len:int -> decode:bool -> Tf_arch.Arch.t -> Tf_workloads.Workload.t -> config list
(** The deterministic starting points {!search} prices before its
    rollouts, under the same [kv_len] and [decode]: every feasible
    (query tile, key/value tile) point from the {!fallback}, completed
    by growing the model-dimension and FFN slices, then [m1], then the
    batch tile; in query-tile-major order.  The completed fallback is
    one of them, and so is every greedy variant, which moves only the
    query and key/value tiles before it completes.  Each growth step
    bisects its ascending menu: the Table 2 requirement never falls as a
    tile grows, so the options that fit form a prefix.
    @raise Invalid_argument as {!fallback}. *)

val pareto :
  ?iterations:int ->
  Tf_arch.Arch.t ->
  Tf_workloads.Workload.t ->
  cost:(config -> float * float) ->
  unit ->
  (config * float * float) list
(** The Pareto-optimal feasible tilings over [cost]'s (latency, energy),
    from the deterministic grid sweep plus [iterations] random
    MCTS-style samples (default 200): no returned configuration is
    dominated by another on both objectives.  The pool is deduplicated
    first, so [cost] runs once per distinct tiling.  Sorted by latency.  This is the design-space view
    behind the EDP objective — the paper's reward can be either metric
    (Section 5.1). *)

type probe = {
  rollout : int;  (** 1-based MCTS iteration *)
  best_reward : float;  (** best reward so far ([neg_infinity] before any) *)
  terminals : int;  (** cumulative terminal paths considered *)
  tree_nodes : int;  (** cumulative tree size *)
  depth : int;  (** in-tree depth this rollout selected/expanded to *)
  cost_memo_hits : int;
      (** cumulative cost-model calls answered by this search's memo —
          includes the seeding passes that ran before rollout 1 *)
  cost_memo_misses : int;  (** cumulative full cost-model evaluations *)
}
(** One per-rollout observation of the search, delivered through the
    [probe] callback of {!search} — the series behind
    {!Tf_report.Convergence} (best-reward-vs-rollout curve, memo hit
    trajectory).  Purely observational: a probed search returns exactly
    what an unprobed one does. *)

val search :
  ?iterations:int ->
  ?seed:int ->
  ?kv_len:int ->
  ?decode:bool ->
  ?probe:(probe -> unit) ->
  Tf_arch.Arch.t ->
  Tf_workloads.Workload.t ->
  evaluate:(config -> float) ->
  unit ->
  config * Mcts.stats
(** [search arch w ~evaluate ()] explores tiling space with MCTS
    ([iterations] defaults to 400; [seed] to 42) and returns the best
    feasible configuration.  [evaluate] maps a feasible configuration to a
    positive cost (lower is better); the reward is the cheapest {!seeds}
    point's cost over the candidate's.  [evaluate] must be deterministic: each call memoizes
    it per configuration (and the MCTS rewards per terminal path), so
    repeated rollouts never re-run the cost model on a configuration
    the grid seeding or an earlier rollout scored.  Deterministic for
    fixed seed. *)
