(** Generic Monte Carlo Tree Search with UCB1 selection (paper Section 5.1).

    The search tree is defined by a {!problem}: from any root-to-node path
    of actions, [actions] lists the next decisions (the empty list marks a
    terminal = complete configuration) and [reward] scores a terminal path
    (higher is better, ideally O(1) scale so the UCB1 exploration
    constant [sqrt 2] is meaningful).

    One iteration performs the four MCTS steps: UCB1 {e selection} down the
    tree, {e expansion} of one untried action, a uniformly random
    {e rollout} to a terminal, and {e backpropagation} of the reward along
    the selected path.  The best terminal found anywhere (including during
    rollouts) is returned. *)

type 'action problem = {
  actions : 'action list -> 'action list;
  reward : 'action list -> float;
}

type stats = {
  iterations : int;
  terminals_evaluated : int;
  best_reward : float;
  tree_nodes : int;
  max_depth : int;  (** deepest expanded root-to-leaf path in the tree *)
  mean_branching : float;
      (** mean child count over expanded internal nodes (0 when the tree
          is a bare root) *)
}

type probe = {
  iteration : int;  (** 1-based iteration index *)
  best_reward_so_far : float;  (** [neg_infinity] before any terminal *)
  terminals_so_far : int;
  tree_nodes_so_far : int;
  depth : int;  (** in-tree depth this iteration selected/expanded to *)
}
(** A per-iteration observation of search progress, delivered through the
    [probe] callback — the raw series behind {!Tf_report}'s convergence
    report (best-reward-vs-rollout curve, tree growth). *)

val search :
  ?probe:(probe -> unit) ->
  rng:Random.State.t ->
  iterations:int ->
  'action problem ->
  ('action list * float) option * stats
(** [search ~rng ~iterations problem] returns the best terminal path and
    its reward, or [None] when the root itself is terminal or no terminal
    was reached.  [probe], when given, is invoked once at the end of
    every iteration with the progress so far; it observes the search
    without influencing it, so the result is identical with or without
    it.  Deterministic for a given [rng] state. *)
