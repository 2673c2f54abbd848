module Json = Tf_json
module Mcts = Transfusion.Mcts
module Tileseek = Transfusion.Tileseek

type t = {
  seed : int;
  stats : Mcts.stats;
  converged_at : int option;
  memo_hits : int;
  memo_misses : int;
  points : Tileseek.probe list;
}

(* Keep every probe that improves the incumbent best reward; these are
   the knees of the convergence curve and must survive thinning. *)
let improvements probes =
  let _, rev =
    List.fold_left
      (fun (best, acc) (p : Tileseek.probe) ->
        if p.Tileseek.best_reward > best then (p.Tileseek.best_reward, p :: acc) else (best, acc))
      (Float.neg_infinity, [])
      probes
  in
  List.rev rev

let of_probes ?(max_points = 64) ~seed ~stats probes =
  let final_best = stats.Mcts.best_reward in
  let converged_at =
    if Float.is_finite final_best then
      List.find_opt (fun (p : Tileseek.probe) -> p.Tileseek.best_reward >= final_best) probes
      |> Option.map (fun (p : Tileseek.probe) -> p.Tileseek.rollout)
    else None
  in
  let memo_hits, memo_misses =
    match List.rev probes with
    | last :: _ -> (last.Tileseek.cost_memo_hits, last.Tileseek.cost_memo_misses)
    | [] -> (0, 0)
  in
  let keep = Tileseek.thin max_points (improvements probes) @ Tileseek.thin max_points probes in
  let points =
    List.sort_uniq
      (fun (a : Tileseek.probe) b -> compare a.Tileseek.rollout b.Tileseek.rollout)
      keep
  in
  { seed; stats; converged_at; memo_hits; memo_misses; points }

let memo_hit_rate t =
  let total = t.memo_hits + t.memo_misses in
  if total = 0 then 0. else float_of_int t.memo_hits /. float_of_int total

let render t =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let s = t.stats in
  pf "TileSeek convergence (seed %d): %d rollouts, best reward %.4f%s\n" t.seed s.Mcts.iterations
    s.Mcts.best_reward
    (match t.converged_at with
    | Some r -> Printf.sprintf " (first reached at rollout %d)" r
    | None -> "");
  pf "tree: %d nodes, max depth %d, mean branching %.2f; %d terminals evaluated\n"
    s.Mcts.tree_nodes s.Mcts.max_depth s.Mcts.mean_branching s.Mcts.terminals_evaluated;
  pf "cost memo: %d hits / %d misses (%.1f%% hit rate)\n" t.memo_hits t.memo_misses
    (100. *. memo_hit_rate t);
  pf "%8s %12s %10s %6s %6s %10s\n" "rollout" "best" "terminals" "nodes" "depth" "memo-hit%";
  List.iter
    (fun (p : Tileseek.probe) ->
      let total = p.Tileseek.cost_memo_hits + p.Tileseek.cost_memo_misses in
      let rate =
        if total = 0 then 0. else 100. *. float_of_int p.Tileseek.cost_memo_hits /. float_of_int total
      in
      pf "%8d %12.4f %10d %6d %6d %9.1f%%\n" p.Tileseek.rollout p.Tileseek.best_reward
        p.Tileseek.terminals p.Tileseek.tree_nodes p.Tileseek.depth rate)
    t.points;
  Buffer.contents buf

let point_to_json (p : Tileseek.probe) =
  Json.Obj
    [
      ("rollout", Json.Int p.Tileseek.rollout);
      ("best_reward", Json.Num p.Tileseek.best_reward);
      ("terminals", Json.Int p.Tileseek.terminals);
      ("tree_nodes", Json.Int p.Tileseek.tree_nodes);
      ("depth", Json.Int p.Tileseek.depth);
      ("cost_memo_hits", Json.Int p.Tileseek.cost_memo_hits);
      ("cost_memo_misses", Json.Int p.Tileseek.cost_memo_misses);
    ]

let to_json t =
  let s = t.stats in
  Json.Obj
    [
      ("seed", Json.Int t.seed);
      ("rollouts", Json.Int s.Mcts.iterations);
      ("best_reward", Json.Num s.Mcts.best_reward);
      ( "converged_at",
        match t.converged_at with Some r -> Json.Int r | None -> Json.Null );
      ("terminals_evaluated", Json.Int s.Mcts.terminals_evaluated);
      ("tree_nodes", Json.Int s.Mcts.tree_nodes);
      ("max_depth", Json.Int s.Mcts.max_depth);
      ("mean_branching", Json.Num s.Mcts.mean_branching);
      ("cost_memo_hits", Json.Int t.memo_hits);
      ("cost_memo_misses", Json.Int t.memo_misses);
      ("memo_hit_rate", Json.Num (memo_hit_rate t));
      ("curve", Json.List (List.map point_to_json t.points));
    ]
