(** TileSeek/MCTS search convergence report.

    Consumes the per-rollout {!Transfusion.Tileseek.probe} series (the
    hook added for this layer) plus the final {!Transfusion.Mcts.stats}
    and summarises how the search behaved: the best-reward-vs-rollout
    curve, tree shape (depth, branching), and the cost-memo hit
    trajectory.  Deterministic for a fixed search seed, and the JSON form
    round-trips through the deterministic {!Tf_json}
    emitter — pinned by the tests. *)

type t = {
  seed : int;
  stats : Transfusion.Mcts.stats;
  converged_at : int option;
      (** first rollout that reached the final best reward ([None] when
          no terminal was ever evaluated) *)
  memo_hits : int;  (** final cumulative cost-memo hits *)
  memo_misses : int;
  points : Transfusion.Tileseek.probe list;
      (** thinned curve: every best-reward improvement survives, the
          remainder is evenly sampled; ascending rollout order *)
}

val of_probes :
  ?max_points:int ->
  seed:int ->
  stats:Transfusion.Mcts.stats ->
  Transfusion.Tileseek.probe list ->
  t
(** Summarise a probe series (in delivery = rollout order).  The curve is
    thinned to at most [max_points] (default 64) — improvements and the
    final point always survive. *)

val render : t -> string
(** Human summary: headline, tree shape, memo hit rate, curve table. *)

val to_json : t -> Tf_json.t
(** Deterministic object (schema fragment of [transfusion.explain/1]). *)
