type 'action problem = {
  actions : 'action list -> 'action list;
  reward : 'action list -> float;
}

type stats = {
  iterations : int;
  terminals_evaluated : int;
  best_reward : float;
  tree_nodes : int;
  max_depth : int;
  mean_branching : float;
}

type probe = {
  iteration : int;
  best_reward_so_far : float;
  terminals_so_far : int;
  tree_nodes_so_far : int;
  depth : int;
}

type 'action node = {
  mutable children : ('action * 'action node) list;
  mutable untried : 'action list;
  mutable visits : int;
  mutable total_reward : float;
}

let make_node actions = { children = []; untried = actions; visits = 0; total_reward = 0. }

let m_rollouts = Tf_obs.Counter.create ~help:"MCTS selection+rollout iterations" "mcts.rollouts_total"

let m_terminals =
  Tf_obs.Counter.create ~help:"terminal paths evaluated (reward calls)" "mcts.terminals_total"

(* The UCB1 exploration constant. *)
let exploration = Float.sqrt 2.

let ucb1 ~parent_visits node =
  if node.visits = 0 then infinity
  else
    (node.total_reward /. float_of_int node.visits)
    +. (exploration *. sqrt (log (float_of_int parent_visits) /. float_of_int node.visits))

(* In-tree shape statistics: max root-to-leaf depth and the mean
   branching factor over expanded internal nodes (the convergence
   report's view of how far the search has committed). *)
let tree_shape root =
  let max_depth = ref 0 in
  let internal = ref 0 in
  let children_total = ref 0 in
  let rec walk depth node =
    if depth > !max_depth then max_depth := depth;
    match node.children with
    | [] -> ()
    | cs ->
        incr internal;
        children_total := !children_total + List.length cs;
        List.iter (fun (_, c) -> walk (depth + 1) c) cs
  in
  walk 0 root;
  let mean_branching =
    if !internal = 0 then 0. else float_of_int !children_total /. float_of_int !internal
  in
  (!max_depth, mean_branching)

let search ?probe ~rng ~iterations problem =
  let root = make_node (problem.actions []) in
  let best = ref None in
  let terminals = ref 0 in
  let tree_nodes = ref 1 in
  let consider path reward =
    incr terminals;
    Tf_obs.Counter.incr m_terminals;
    match !best with
    | Some (_, r) when r >= reward -> ()
    | _ -> best := Some (List.rev path, reward)
  in
  (* A uniformly random completion of [path_rev] to a terminal. *)
  let rec rollout path_rev =
    match problem.actions (List.rev path_rev) with
    | [] -> path_rev
    | candidates ->
        let pick = List.nth candidates (Random.State.int rng (List.length candidates)) in
        rollout (pick :: path_rev)
  in
  for iteration = 1 to iterations do
    Tf_obs.Counter.incr m_rollouts;
    (* Selection: walk UCB1-best children while fully expanded. *)
    let rec select node path_rev trail =
      if node.untried <> [] then (node, path_rev, trail)
      else
        match node.children with
        | [] -> (node, path_rev, trail) (* terminal node *)
        | children ->
            let _, (action, child) =
              List.fold_left
                (fun (best_score, best_child) (a, c) ->
                  let score = ucb1 ~parent_visits:node.visits c in
                  if score > best_score then (score, (a, c)) else (best_score, best_child))
                (Float.neg_infinity, List.hd children)
                children
            in
            select child (action :: path_rev) (child :: trail)
    in
    let node, path_rev, trail = select root [] [ root ] in
    (* Expansion. *)
    let node, path_rev, trail =
      match node.untried with
      | [] -> (node, path_rev, trail)
      | action :: rest ->
          node.untried <- rest;
          let child_path = action :: path_rev in
          let child = make_node (problem.actions (List.rev child_path)) in
          node.children <- (action, child) :: node.children;
          incr tree_nodes;
          (child, child_path, child :: trail)
    in
    ignore node;
    (* Rollout + evaluation. *)
    let terminal_rev = rollout path_rev in
    let reward = problem.reward (List.rev terminal_rev) in
    consider terminal_rev reward;
    (* Backpropagation along the selected/expanded trail. *)
    List.iter
      (fun n ->
        n.visits <- n.visits + 1;
        n.total_reward <- n.total_reward +. reward)
      trail;
    match probe with
    | None -> ()
    | Some f ->
        f
          {
            iteration;
            best_reward_so_far = (match !best with Some (_, r) -> r | None -> Float.neg_infinity);
            terminals_so_far = !terminals;
            tree_nodes_so_far = !tree_nodes;
            depth = List.length trail - 1;
          }
  done;
  let max_depth, mean_branching = tree_shape root in
  let stats =
    {
      iterations;
      terminals_evaluated = !terminals;
      best_reward = (match !best with Some (_, r) -> r | None -> Float.neg_infinity);
      tree_nodes = !tree_nodes;
      max_depth;
      mean_branching;
    }
  in
  (!best, stats)
