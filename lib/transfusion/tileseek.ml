open Tf_arch
open Tf_workloads

type config = { b : int; d : int; p : int; m1 : int; m0 : int; s : int }

let pp_config ppf c =
  Fmt.pf ppf "b=%d d=%d p=%d m1=%d m0=%d s=%d" c.b c.d c.p c.m1 c.m0 c.s

(* Powers of two that divide [n], capped, plus [n] itself when small. *)
let pow2_divisors ?(cap = max_int) n =
  let rec grow acc v = if v <= n && v <= cap && n mod v = 0 then grow (v :: acc) (2 * v) else acc in
  List.rev (grow [] 1)

let all_divisors n =
  let rec loop acc k =
    if k > n then List.rev acc else loop (if n mod k = 0 then k :: acc else acc) (k + 1)
  in
  loop [] 1

(* Thin a divisor list to at most [keep] geometrically spread options.
   [keep <= 1] keeps at most the first option instead of dividing by
   zero in the spread index. *)
let thin keep l =
  if keep <= 0 then []
  else
    let n = List.length l in
    if n <= keep then l
    else if keep = 1 then [ List.hd l ]
    else
      let arr = Array.of_list l in
      List.init keep (fun i -> arr.(i * (n - 1) / (keep - 1))) |> List.sort_uniq compare

(* The option menus of one search space, each ascending.  Every greedy
   [grow] step and every MCTS expansion reads them, and the
   model-dimension and FFN menus scan every integer up to [d_model] /
   [ffn_hidden], so they are built once per space.  Lazily: [feasible]
   and [dims] build a space per call and never read the menus.  (m1's
   menu depends on the chosen m0 and is a handful of halvings, so it is
   not tabled.) *)
type menus = {
  b_menu : int list;
  d_menu : int list;
  p_menu : int list;
  m0_menu : int list;
  s_menu : int list;
}

(* Query tiles need not divide the sequence (the last tile may be ragged),
   so 3*2^k options are offered alongside powers of two: they matter when
   a power of two just misses the Table 2 budget.  Key/value tiles divide
   the key/value sequence — the cache length in a decode step, the
   workload's own sequence otherwise. *)
let build_menus (w : Workload.t) ~kv =
  let seq = w.seq_len in
  let pow2 = pow2_divisors ~cap:8192 seq in
  let three_pow2 =
    List.filter_map (fun p -> if 3 * p <= Int.min 8192 seq then Some (3 * p) else None) pow2
  in
  {
    b_menu = pow2_divisors w.batch;
    d_menu = thin 12 (all_divisors w.model.Model.d_model);
    p_menu = List.sort_uniq compare (pow2 @ three_pow2);
    m0_menu = pow2_divisors ~cap:512 kv;
    s_menu = thin 12 (all_divisors w.model.Model.ffn_hidden);
  }

(* Search space: the workload plus the key/value sequence the resident
   [m1*m0] slice must divide.  For self attention the two coincide; a
   decode step searches tiles of its cache length ([kv] large, query
   length 1) under the stricter decode buffer model.  A space belongs to
   one call on one domain, so forcing its menus needs no lock. *)
type space = { arch : Arch.t; w : Workload.t; kv : int; decode : bool; menus : menus Lazy.t }

let space ?kv_len ?(decode = false) arch (w : Workload.t) =
  let kv = Option.value kv_len ~default:w.seq_len in
  if kv < 1 then invalid_arg "Tileseek: kv_len must be positive";
  { arch; w; kv; decode; menus = lazy (build_menus w ~kv) }

(* P' is the intra-tile sequence length processed per PE row (paper
   Section 5.2): the query tile spread over the 2D array's rows. *)
let p_row (arch : Arch.t) config =
  Int.max 1 (config.p / Pe_array.rows arch.pe_2d)

let sp_dims sp config =
  Buffer_req.of_workload ~kv_len:sp.kv sp.w ~b:config.b ~d:config.d ~p:config.p ~m1:config.m1
    ~m0:config.m0 ~s:config.s ~p_row:(p_row sp.arch config)

let sp_feasible sp config =
  config.m1 * config.m0 <= sp.kv
  && sp.kv mod (config.m1 * config.m0) = 0
  &&
  let fits = if sp.decode then Buffer_req.fits_decode else Buffer_req.fits in
  fits ~buffer_elements:(Arch.buffer_elements sp.arch) (sp_dims sp config)

let dims ?kv_len arch w config = sp_dims (space ?kv_len arch w) config
let feasible ?kv_len ?decode arch w config = sp_feasible (space ?kv_len ?decode arch w) config

let b_options sp = (Lazy.force sp.menus).b_menu
let d_options sp = (Lazy.force sp.menus).d_menu
let p_options sp = (Lazy.force sp.menus).p_menu
let m0_options sp = (Lazy.force sp.menus).m0_menu
let m1_options sp ~m0 = pow2_divisors ~cap:64 (sp.kv / m0)
let s_options sp = (Lazy.force sp.menus).s_menu

let config_of_path path =
  match path with
  | [ b; d; p; m0; m1; s ] -> { b; d; p; m1; m0; s }
  | _ -> invalid_arg "Tileseek.config_of_path: incomplete path"

let sp_fallback sp =
  let head l = List.hd l in
  let candidate =
    {
      b = head (b_options sp);
      d = head (d_options sp);
      p = head (p_options sp);
      m1 = 1;
      m0 = head (m0_options sp);
      s = head (s_options sp);
    }
  in
  if sp_feasible sp candidate then candidate
  else
    invalid_arg
      (Fmt.str "Tileseek.fallback: minimal tile does not fit %s for %a" sp.arch.Arch.name
         Workload.pp sp.w)

let fallback arch w = sp_fallback (space arch w)

(* Shrink a configuration's key/value tile until it divides a different
   cache length (powers of two, so halving converges): decode evaluations
   search once at a representative cache depth and reuse the clamped tile
   at every other depth. *)
let clamp_kv (c : config) ~kv_len =
  if kv_len < 1 then invalid_arg "Tileseek.clamp_kv: kv_len must be positive";
  let rec shrink v = if v <= 1 || kv_len mod v = 0 then Int.max 1 v else shrink (v / 2) in
  let m0 = shrink (Int.min c.m0 kv_len) in
  let rec shrink_m1 m1 =
    if m1 <= 1 || kv_len mod (m1 * m0) = 0 then Int.max 1 m1 else shrink_m1 (m1 / 2)
  in
  { c with m0; m1 = shrink_m1 (Int.min c.m1 (Int.max 1 (kv_len / m0))) }

(* Grow one dimension of [config] to its largest feasible option,
   holding the others: [update config o] for the last feasible [o] of the
   menu, or [config] when none is.  Each menu ascends, and the Table 2
   requirement ([Buffer_req.Gen]: sums of products of non-negative
   factors, and [p_row] rises with [p]) never falls as one tile dimension
   grows; m1*m0 is a power of two, so it divides the key/value length
   exactly up to some size.  The feasible options are therefore a prefix
   of the menu, and bisection finds its end in about log2 (menu length)
   checks. *)
let grow sp config options update =
  let options = Array.of_list (options sp) in
  (* options.(0 .. lo-1) are feasible, options.(hi ..) are not *)
  let lo = ref 0 and hi = ref (Array.length options) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if sp_feasible sp (update config options.(mid)) then lo := mid + 1 else hi := mid
  done;
  if !lo = 0 then config else update config options.(!lo - 1)

(* Complete a candidate whose query tile [p] and key/value tile [m0] are
   chosen: grow d, s, m1 at that m0, then b. *)
let complete sp config =
  let grow = grow sp in
  let config = grow config d_options (fun c d -> { c with d }) in
  let config = grow config s_options (fun c s -> { c with s }) in
  let config = grow config (fun sp -> m1_options sp ~m0:config.m0) (fun c m1 -> { c with m1 }) in
  grow config b_options (fun c b -> { c with b })

let greedy_with sp ~m0_first =
  let base = sp_fallback sp in
  let grow = grow sp in
  let grow_p c = grow c p_options (fun c p -> { c with p }) in
  let grow_m0 c = grow c m0_options (fun c m0 -> { c with m0 }) in
  complete sp (if m0_first then grow_p (grow_m0 base) else grow_m0 (grow_p base))

(* Alternate single-step growth of the query tile and the key/value tile
   until neither can advance — walks to a balanced point of the Table 2
   frontier that the one-dimension-first orders overshoot. *)
let greedy_balanced sp =
  let base = sp_fallback sp in
  let next options current =
    let rec scan = function
      | a :: rest when a <= current -> scan rest
      | a :: _ -> Some a
      | [] -> None
    in
    scan options
  in
  let progress options current =
    let len = List.length options in
    let idx = List.length (List.filter (fun o -> o <= current) options) in
    if len <= 1 then 1. else float_of_int idx /. float_of_int len
  in
  let try_bump config get set options =
    match next options (get config) with
    | Some v when sp_feasible sp (set config v) -> (set config v, true)
    | _ -> (config, false)
  in
  let step config =
    (* Advance whichever dimension is proportionally further behind, so
       neither exhausts its option list while the other idles. *)
    let p_opts = p_options sp and m0_opts = m0_options sp in
    let p_first = progress p_opts config.p <= progress m0_opts config.m0 in
    let bump_p c = try_bump c (fun c -> c.p) (fun c p -> { c with p }) p_opts in
    let bump_m0 c = try_bump c (fun c -> c.m0) (fun c m0 -> { c with m0 }) m0_opts in
    let config, moved1 = if p_first then bump_p config else bump_m0 config in
    if moved1 then (config, true)
    else if p_first then bump_m0 config
    else bump_p config
  in
  let rec walk config =
    let config, moved = step config in
    if moved then walk config else config
  in
  complete sp (walk base)

let greedy ?kv_len ?decode arch w = greedy_with (space ?kv_len ?decode arch w) ~m0_first:false

let greedy_variants arch w =
  let sp = space arch w in
  [ greedy_with sp ~m0_first:false; greedy_with sp ~m0_first:true; greedy_balanced sp ]

(* The (query tile, key/value tile) grid — the two dimensions that trade
   residency against running-state update cost — from the fallback: every
   feasible point, completed, in p-major order. *)
let grid_candidates sp =
  let base = sp_fallback sp in
  List.concat_map
    (fun p ->
      List.filter_map
        (fun m0 ->
          let candidate = { base with p; m0 } in
          if sp_feasible sp candidate then Some (complete sp candidate) else None)
        (m0_options sp))
    (p_options sp)

let seeds ~kv_len ~decode arch w = grid_candidates (space ~kv_len ~decode arch w)

(* Deterministic seed: the cheapest grid candidate, the first on ties.
   The grid is never empty: it holds the completed fallback.  Each
   greedy walk moves only the query and key/value tiles before it
   completes, so it is a grid point too and could not beat this seed. *)
let grid_seed grid ~evaluate =
  let first = List.hd grid in
  List.fold_left
    (fun (best, best_cost) candidate ->
      let cost = evaluate candidate in
      if best_cost <= cost then (best, best_cost) else (candidate, cost))
    (first, evaluate first) (List.tl grid)

let log_src = Logs.Src.create "transfusion.tileseek" ~doc:"TileSeek tiling search"

module Log = (val Logs.src_log log_src : Logs.LOG)

let m_searches = Tf_obs.Counter.create ~help:"Tileseek.search calls" "tileseek.searches_total"

let m_memo_hits =
  Tf_obs.Counter.create ~help:"cost-model evaluations answered from the config memo"
    "tileseek.cost_memo_hits_total"

let m_memo_misses =
  Tf_obs.Counter.create ~help:"cost-model evaluations that ran the full cost model"
    "tileseek.cost_memo_misses_total"

(* Config-keyed memo: the caller's cost function re-runs the full cost
   model (the expensive Timeloop/Accelergy role), and the seeding passes,
   the grid sweep and MCTS rollouts revisit the same configurations many
   times over.  One search call runs on one domain, so a plain Hashtbl
   suffices.  [hits]/[misses] additionally count into local refs so one
   search's own memo trajectory can be reported (the global Tf_obs
   counters aggregate across every search in the process). *)
let memoize_cost ~hits ~misses f =
  let tbl : (config, float) Hashtbl.t = Hashtbl.create 256 in
  fun c ->
    match Hashtbl.find_opt tbl c with
    | Some v ->
        Tf_obs.Counter.incr m_memo_hits;
        incr hits;
        v
    | None ->
        Tf_obs.Counter.incr m_memo_misses;
        incr misses;
        let v = f c in
        Hashtbl.add tbl c v;
        v

let pareto ?(iterations = 200) arch w ~cost () =
  let sp = space arch w in
  (* Candidate pool: the full grid plus random completions. *)
  let pool = ref (grid_candidates sp) in
  let rng = Random.State.make [| 2024 |] in
  let pick options = List.nth options (Random.State.int rng (List.length options)) in
  for _ = 1 to iterations do
    let m0 = pick (m0_options sp) in
    let candidate =
      {
        b = pick (b_options sp);
        d = pick (d_options sp);
        p = pick (p_options sp);
        m1 = pick (m1_options sp ~m0);
        m0;
        s = pick (s_options sp);
      }
    in
    if sp_feasible sp candidate then pool := candidate :: !pool
  done;
  let scored =
    List.sort_uniq compare !pool
    |> List.map (fun c ->
           let latency, energy = cost c in
           (c, latency, energy))
  in
  let dominated (_, l, e) =
    List.exists
      (fun (_, l', e') -> (l' < l && e' <= e) || (l' <= l && e' < e))
      scored
  in
  List.filter (fun entry -> not (dominated entry)) scored
  |> List.sort (fun (_, l1, _) (_, l2, _) -> compare l1 l2)

type probe = {
  rollout : int;
  best_reward : float;
  terminals : int;
  tree_nodes : int;
  depth : int;
  cost_memo_hits : int;
  cost_memo_misses : int;
}

let search ?(iterations = 400) ?(seed = 42) ?kv_len ?decode ?probe arch w ~evaluate () =
  let sp = space ?kv_len ?decode arch w in
  Tf_obs.Counter.incr m_searches;
  Tf_obs.Trace.with_span ~cat:"tileseek"
    ~args:
      [
        ("arch", arch.Arch.name);
        ("model", w.Workload.model.Model.name);
        ("seq", string_of_int w.Workload.seq_len);
        ("kv", string_of_int sp.kv);
        ("iterations", string_of_int iterations);
      ]
    "tileseek.search"
  @@ fun () ->
  let memo_hits = ref 0 and memo_misses = ref 0 in
  let evaluate = memoize_cost ~hits:memo_hits ~misses:memo_misses evaluate in
  let seed_config, ref_cost = grid_seed (grid_candidates sp) ~evaluate in
  let actions path =
    match List.length path with
    | 0 -> b_options sp
    | 1 -> d_options sp
    | 2 -> p_options sp
    | 3 -> m0_options sp
    | 4 ->
        let m0 = List.nth path 3 in
        m1_options sp ~m0
    | 5 -> s_options sp
    | _ -> []
  in
  let reward path =
    let config = config_of_path path in
    if not (sp_feasible sp config) then 0.
    else
      let cost = evaluate config in
      if cost <= 0. then 0. else ref_cost /. cost
  in
  let rng = Random.State.make [| seed |] in
  let mcts_probe =
    Option.map
      (fun f (p : Mcts.probe) ->
        f
          {
            rollout = p.Mcts.iteration;
            best_reward = p.Mcts.best_reward_so_far;
            terminals = p.Mcts.terminals_so_far;
            tree_nodes = p.Mcts.tree_nodes_so_far;
            depth = p.Mcts.depth;
            cost_memo_hits = !memo_hits;
            cost_memo_misses = !memo_misses;
          })
      probe
  in
  let best, stats =
    Mcts.search ?probe:mcts_probe ~rng ~iterations { actions; reward }
  in
  (* The grid seed competes with the search result: MCTS must beat it to
     displace it (reward 1.0 = the seed's own cost). *)
  let result =
    match best with
    | Some (path, reward) when reward > 1. -> (config_of_path path, stats)
    | _ -> (seed_config, stats)
  in
  let config = fst result in
  Log.debug (fun m ->
      m "search(%s, %s/%d): %a (best reward %.3f over %d terminals)" arch.Arch.name
        w.Workload.model.Tf_workloads.Model.name w.Workload.seq_len pp_config config
        stats.Mcts.best_reward stats.Mcts.terminals_evaluated);
  result
