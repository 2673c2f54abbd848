(* Property-based and differential tests (driven by the Qgen kernel).

   Properties run [Qgen.count] cases each (>= 100 by default; QGEN_COUNT
   overrides) under the seed policy of test/qgen.ml: set QGEN_SEED to
   reproduce a CI matrix failure, and every failure message carries the
   seed plus a shrunk counterexample.

   Three families:
   - scheduler properties: every DPipe schedule of a random DAG passes
     the independent Tf_analysis verifier and replays correctly in the
     event-driven Pipeline_sim;
   - model properties: the closed-form Table 2 buffer formulas equal a
     brute-force tensor-inventory enumeration; Topo enumeration yields
     only valid, distinct topological orders; feasible TileSeek configs
     pass Tiling_lint;
   - differential: the analytic DPipe makespan vs the Pipeline_sim
     replay on real fused-layer cascades (the documented 1e-6 relative
     tolerance), and the decode attention flavour degenerating exactly
     to cross-attention when the cache length equals the projected
     sequence, the fast TileSeek scorer against the cold cost path, and
     the explain report and the verifier against the tiling and the
     per-layer execution evaluate serves. *)

module Dag = Tf_dag.Dag
module Topo = Tf_dag.Topo
module Dpipe = Transfusion.Dpipe
module Pipeline_sim = Transfusion.Pipeline_sim
module Buffer_req = Transfusion.Buffer_req
module Tileseek = Transfusion.Tileseek
module Strategies = Transfusion.Strategies
module Layer_costs = Transfusion.Layer_costs
module Workload = Tf_workloads.Workload

let archs = Tf_arch.Presets.[ cloud; edge; edge_32; edge_64 ]

(* ------------------------------------------------------------------ *)
(* DPipe on random DAGs: verifier-clean and replayable                 *)

type dpipe_case = {
  arch : Tf_arch.Arch.t;
  g : string Dag.t;
  loads : float array;
  matrix_mask : bool array;
}

let dpipe_case r =
  let g = Qgen.dag r in
  let n = Dag.node_count g in
  {
    arch = Qgen.choose r archs;
    g;
    loads = Qgen.loads r n;
    matrix_mask = Array.init n (fun _ -> Qgen.bool r);
  }

let print_dpipe_case c =
  Printf.sprintf "%s %s loads=[%s] matrix=[%s]" c.arch.Tf_arch.Arch.name (Qgen.print_dag c.g)
    (String.concat ";" (List.map (fun l -> Printf.sprintf "%g" l) (Array.to_list c.loads)))
    (String.concat ";" (List.map string_of_bool (Array.to_list c.matrix_mask)))

(* Shrink by dropping the highest-id node (keeps edges valid since our
   generator only draws low -> high edges). *)
let shrink_dpipe_case c =
  let nodes = Dag.nodes c.g in
  match List.rev nodes with
  | [] | [ _ ] -> []
  | last :: _ ->
      let keep = List.filter (fun i -> i <> last) nodes in
      [ { c with g = Dag.induced c.g keep } ]

let prop_dpipe_verifier_clean c =
  let load n = c.loads.(n) in
  let matrix n = c.matrix_mask.(n) in
  let sched = Dpipe.schedule c.arch ~load ~matrix (Dpipe.plan c.g) in
  let diags = Tf_analysis.Sched_lint.verify c.g sched in
  if Tf_analysis.Diagnostic.has_errors diags then
    Alcotest.failf "Sched_lint errors: %s"
      (String.concat "; "
         (List.map Tf_analysis.Diagnostic.render (Tf_analysis.Diagnostic.errors diags)));
  match Pipeline_sim.replay c.arch ~load ~matrix c.g sched with
  | Error e -> Alcotest.failf "replay deadlocked: %s" e
  | Ok outcome ->
      if not (Pipeline_sim.agrees sched outcome) then
        Alcotest.failf "simulated makespan %.6e disagrees with analytic %.6e"
          outcome.Pipeline_sim.makespan_cycles sched.Dpipe.makespan_cycles

let test_dpipe_random_dags () =
  Qgen.run ~shrink:shrink_dpipe_case ~print:print_dpipe_case ~gen:dpipe_case
    "dpipe random DAGs verify and replay" prop_dpipe_verifier_clean

(* ------------------------------------------------------------------ *)
(* The DP kernel: one run, recorded or not, replayable                 *)

(* Every candidate within the search bounds, in both modes: the search's
   run and the winner's recorded run agree bit for bit, the one-pass half
   makespan equals a separate half-unroll run, and the recorded timeline
   replays exactly through [Dpipe.Replay] over [float]. *)
let check_kernel ~label arch g ~load ~matrix =
  let plan = Dpipe.plan g in
  List.iter
    (fun (mode_label, mode) ->
      if not (Dpipe.Private.steady_consistency_check ~mode arch ~load ~matrix plan) then
        Alcotest.failf "%s, %s: a candidate's recorded and searched runs, its two-run half \
                        makespan or its replay disagree" label mode_label)
    [
      ("Dp", `Dp);
      ("Static", `Static (fun n -> if matrix n then Tf_arch.Arch.Pe_2d else Tf_arch.Arch.Pe_1d));
    ]

let test_dpipe_kernel () =
  Qgen.run ~shrink:shrink_dpipe_case ~print:print_dpipe_case ~gen:dpipe_case
    "dpipe kernel: recorded = searched, replay exact" (fun c ->
      check_kernel ~label:"random DAG" c.arch c.g ~load:(fun n -> c.loads.(n))
        ~matrix:(fun n -> c.matrix_mask.(n)));
  let w = Workload.v ~batch:4 Tf_workloads.Presets.bert ~seq_len:4096 in
  List.iter
    (fun arch ->
      List.iter
        (fun (label, cascade) ->
          let p = Layer_costs.problem ~m0:128 w cascade in
          check_kernel ~label arch p.Layer_costs.dag ~load:p.Layer_costs.load
            ~matrix:p.Layer_costs.matrix)
        [
          ("fused layer", Transfusion.Cascades.full_layer Tf_einsum.Scalar_op.Gelu);
          ("MHA", Transfusion.Cascades.mha ());
        ])
    archs

(* ------------------------------------------------------------------ *)
(* One plan, many loads: a shared Dpipe.plan schedules like a fresh one *)

(* Every field of two schedules, floats compared bit for bit. *)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let schedules_identical (a : Dpipe.t) (b : Dpipe.t) =
  a.Dpipe.partition = b.Dpipe.partition
  && a.Dpipe.order = b.Dpipe.order
  && a.Dpipe.epochs_unrolled = b.Dpipe.epochs_unrolled
  && same_bits a.Dpipe.makespan_cycles b.Dpipe.makespan_cycles
  && same_bits a.Dpipe.steady_interval_cycles b.Dpipe.steady_interval_cycles
  && same_bits a.Dpipe.useful_2d_per_epoch b.Dpipe.useful_2d_per_epoch
  && same_bits a.Dpipe.useful_1d_per_epoch b.Dpipe.useful_1d_per_epoch
  && List.length a.Dpipe.assignments = List.length b.Dpipe.assignments
  && List.for_all2
       (fun (x : Dpipe.assignment) (y : Dpipe.assignment) ->
         x.Dpipe.node = y.Dpipe.node && x.Dpipe.epoch = y.Dpipe.epoch
         && x.Dpipe.resource = y.Dpipe.resource
         && same_bits x.Dpipe.start_cycle y.Dpipe.start_cycle
         && same_bits x.Dpipe.end_cycle y.Dpipe.end_cycle)
       a.Dpipe.assignments b.Dpipe.assignments

(* Schedule every load vector, in order, through one plan of [g] and
   through a fresh plan each; the plan holds nothing a schedule can
   change, so the two must agree field for field. *)
let check_plan_reuse ~label ~mode arch g loads =
  let shared = Dpipe.plan g in
  List.iteri
    (fun k (load, matrix) ->
      let reused = Dpipe.schedule ~mode arch ~load ~matrix shared in
      let fresh = Dpipe.schedule ~mode arch ~load ~matrix (Dpipe.plan g) in
      if not (schedules_identical reused fresh) then
        Alcotest.failf "%s: load vector %d: the shared plan's schedule differs from a fresh plan's"
          label k)
    loads

type reuse_case = {
  r_arch : Tf_arch.Arch.t;
  r_g : string Dag.t;
  r_loads : float array list;  (* several load vectors over [r_g] *)
  r_mask : bool array;
  r_static : bool;  (* `Static with the native array of each node, else `Dp *)
}

let reuse_case r =
  let g = Qgen.dag r in
  let n = Dag.node_count g in
  {
    r_arch = Qgen.choose r archs;
    r_g = g;
    r_loads = List.init (Qgen.range r 2 4) (fun _ -> Qgen.loads r n);
    r_mask = Array.init n (fun _ -> Qgen.bool r);
    r_static = Qgen.bool r;
  }

let print_reuse_case c =
  Printf.sprintf "%s %s static=%b loads=[%s]" c.r_arch.Tf_arch.Arch.name (Qgen.print_dag c.r_g)
    c.r_static
    (String.concat " | "
       (List.map
          (fun l -> String.concat ";" (List.map (Printf.sprintf "%g") (Array.to_list l)))
          c.r_loads))

let prop_plan_reuse c =
  let matrix n = c.r_mask.(n) in
  let mode =
    if c.r_static then `Static (fun n -> if matrix n then Tf_arch.Arch.Pe_2d else Tf_arch.Arch.Pe_1d)
    else `Dp
  in
  check_plan_reuse ~label:"random DAG" ~mode c.r_arch c.r_g
    (List.map (fun l -> ((fun n -> l.(n)), matrix)) c.r_loads)

let test_plan_reuse () =
  Qgen.run ~print:print_reuse_case ~gen:reuse_case
    "schedules through a shared plan equal schedules through fresh plans" prop_plan_reuse;
  (* The search's own sharing: the fused layer under DPipe and the MHA
     pinned as FuseMax pins it, at each key/value tile a search prices. *)
  let w = Workload.v ~batch:4 Tf_workloads.Presets.bert ~seq_len:4096 in
  List.iter
    (fun arch ->
      List.iter
        (fun (label, cascade, pinned) ->
          let problems =
            List.map (fun m0 -> Layer_costs.problem ~m0 w cascade) [ 64; 128; 256; 512 ]
          in
          let g = (List.hd problems).Layer_costs.dag in
          let mode =
            if pinned then `Static (Strategies.fusemax_assign arch cascade) else `Dp
          in
          check_plan_reuse ~label ~mode arch g
            (List.map (fun (p : Layer_costs.problem) -> (p.Layer_costs.load, p.Layer_costs.matrix))
               problems))
        [
          ("fused layer", Transfusion.Cascades.full_layer Tf_einsum.Scalar_op.Gelu, false);
          ("pinned MHA", Transfusion.Cascades.mha (), true);
          ("MHA under DPipe", Transfusion.Cascades.mha (), false);
        ])
    archs

(* ------------------------------------------------------------------ *)
(* Buffer_req formulas vs brute-force tensor inventory                 *)

(* The Table 2 rows, spelled as explicit per-module tensor inventories
   (count, dimension list) and summed with integer arithmetic — an
   independent derivation of the closed forms in Buffer_req.  The
   inventory follows DESIGN.md Section 5's tile-resident tensor lists. *)
let footprint tensors =
  List.fold_left (fun acc (count, dims) -> acc + (count * List.fold_left ( * ) 1 dims)) 0 tensors

let qkv_inventory { Buffer_req.b; d; p; m1; m0; h; e; _ } =
  [ (4, [ b; d; p ]); (3, [ b; d; m1; m0 ]); (3, [ d; h; e ]); (2, [ b; h; p ]) ]

let mha_inventory { Buffer_req.b; p; m1; m0; h; e; f; p_row; _ } =
  [
    (1, [ b; h; e; p ]);
    (2, [ b; h; e; m1; m0 ]);
    (2, [ b; h; p ]);
    (2, [ b; h; p; f ]);
    (4, [ m0; p_row ]);
    (18, [ p_row ]);
  ]

let layernorm_inventory { Buffer_req.b; p; h; f; p_row; _ } =
  [ (3, [ b; h; f; p ]); (4, [ h; f; p_row ]) ]

let ffn_inventory { Buffer_req.b; p; h; f; s; p_row; _ } =
  [ (2, [ b; p; h; f ]); (1, [ h; f; s ]); (1, [ s; p ]); (2, [ s ]); (2, [ s; p_row ]) ]

let kv_cache_inventory { Buffer_req.b; m0; h; e; f; _ } =
  [ (1, [ b; h; e; m0 + 1 ]); (1, [ b; h; f; m0 + 1 ]) ]

let dims_gen r =
  let small () = Qgen.range r 1 6 in
  {
    Buffer_req.b = small ();
    d = small ();
    p = small ();
    m1 = small ();
    m0 = small ();
    h = small ();
    e = small ();
    f = small ();
    s = small ();
    p_row = small ();
  }

let print_dims d = Fmt.str "%a" Buffer_req.pp d

let shrink_dims (d : Buffer_req.dims) =
  let at f = List.map f (Qgen.shrink_int ~lo:1 d.Buffer_req.b) in
  at (fun b -> { d with Buffer_req.b })
  @ List.map (fun p -> { d with Buffer_req.p }) (Qgen.shrink_int ~lo:1 d.Buffer_req.p)
  @ List.map (fun m0 -> { d with Buffer_req.m0 }) (Qgen.shrink_int ~lo:1 d.Buffer_req.m0)
  @ List.map (fun m1 -> { d with Buffer_req.m1 }) (Qgen.shrink_int ~lo:1 d.Buffer_req.m1)
  @ List.map (fun h -> { d with Buffer_req.h }) (Qgen.shrink_int ~lo:1 d.Buffer_req.h)

let prop_buffer_req_matches_inventory d =
  let check name formula inventory =
    let expected = footprint inventory in
    if formula <> float_of_int expected then
      Alcotest.failf "%s: formula %.1f <> inventory %d" name formula expected
  in
  check "qkv" (Buffer_req.qkv d) (qkv_inventory d);
  check "mha" (Buffer_req.mha d) (mha_inventory d);
  check "add_layernorm" (Buffer_req.add_layernorm d) (layernorm_inventory d);
  check "ffn" (Buffer_req.ffn d) (ffn_inventory d);
  check "kv_cache_tile" (Buffer_req.kv_cache_tile d) (kv_cache_inventory d);
  check "mha_decode" (Buffer_req.mha_decode d) (mha_inventory d @ kv_cache_inventory d);
  let max_of l = List.fold_left Float.max 0. l in
  Alcotest.(check (float 0.))
    "worst is the max module" (Buffer_req.worst d)
    (max_of [ Buffer_req.qkv d; Buffer_req.mha d; Buffer_req.add_layernorm d; Buffer_req.ffn d ]);
  Alcotest.(check (float 0.))
    "worst_decode swaps the MHA row" (Buffer_req.worst_decode d)
    (max_of
       [ Buffer_req.qkv d; Buffer_req.mha_decode d; Buffer_req.add_layernorm d; Buffer_req.ffn d ])

let test_buffer_req_brute_force () =
  Qgen.run ~shrink:shrink_dims ~print:print_dims ~gen:dims_gen
    "Buffer_req equals tensor-inventory brute force" prop_buffer_req_matches_inventory

(* The float API is a written-out specialisation of [Buffer_req.Gen]:
   pin it, bit for bit, to [Gen (Num_domain.Float)].  Factors are small,
   powers of two, within 64 of the largest preset buffer capacity, or
   anything below 2^31.  The last kind takes the products past 2^53,
   where every product rounds, so a reassociated or reordered operation
   shows as a differing bit. *)
module Gen_float = Buffer_req.Gen (Transfusion.Num_domain.Float)

let largest_capacity =
  List.fold_left (fun acc a -> Int.max acc (Tf_arch.Arch.buffer_elements a)) 0 archs

let spec_dims_gen r =
  let factor () =
    match Qgen.int r 4 with
    | 0 -> Qgen.range r 1 64
    | 1 -> 1 lsl Qgen.range r 0 14
    | 2 -> Int.max 1 (largest_capacity + Qgen.range r (-64) 64)
    | _ -> Qgen.range r 1 ((1 lsl 31) - 1)
  in
  {
    Buffer_req.b = factor ();
    d = factor ();
    p = factor ();
    m1 = factor ();
    m0 = factor ();
    h = factor ();
    e = factor ();
    f = factor ();
    s = factor ();
    p_row = factor ();
  }

let prop_float_rows_match_gen (d : Buffer_req.dims) =
  let g =
    {
      Gen_float.b = float_of_int d.Buffer_req.b;
      d = float_of_int d.Buffer_req.d;
      p = float_of_int d.Buffer_req.p;
      m1 = float_of_int d.Buffer_req.m1;
      m0 = float_of_int d.Buffer_req.m0;
      h = float_of_int d.Buffer_req.h;
      e = float_of_int d.Buffer_req.e;
      f = float_of_int d.Buffer_req.f;
      s = float_of_int d.Buffer_req.s;
      p_row = float_of_int d.Buffer_req.p_row;
    }
  in
  List.iter
    (fun (name, direct, spec) ->
      let x = direct d and y = spec g in
      if not (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) then
        Alcotest.failf "%s: float API %h <> Gen (float) %h" name x y)
    [
      ("qkv", Buffer_req.qkv, Gen_float.qkv);
      ("mha", Buffer_req.mha, Gen_float.mha);
      ("add_layernorm", Buffer_req.add_layernorm, Gen_float.add_layernorm);
      ("ffn", Buffer_req.ffn, Gen_float.ffn);
      ("worst", Buffer_req.worst, Gen_float.worst);
      ("kv_cache_tile", Buffer_req.kv_cache_tile, Gen_float.kv_cache_tile);
      ("mha_decode", Buffer_req.mha_decode, Gen_float.mha_decode);
      ("worst_decode", Buffer_req.worst_decode, Gen_float.worst_decode);
    ]

let test_buffer_req_matches_gen () =
  Qgen.run ~shrink:shrink_dims ~print:print_dims ~gen:spec_dims_gen
    "Buffer_req's float rows equal Gen (float) bit for bit" prop_float_rows_match_gen

(* ------------------------------------------------------------------ *)
(* Topo enumeration validity                                           *)

let prop_topo_orders_valid g =
  let order = Topo.sort g in
  if not (Topo.is_valid g order) then
    Alcotest.failf "Topo.sort produced an invalid order [%s]"
      (String.concat ";" (List.map string_of_int order));
  let limit = 64 in
  let all = Topo.all ~limit g in
  List.iter
    (fun o ->
      if not (Topo.is_valid g o) then
        Alcotest.failf "Topo.all produced an invalid order [%s]"
          (String.concat ";" (List.map string_of_int o)))
    all;
  let distinct = List.sort_uniq compare all in
  Alcotest.(check int) "orders are distinct" (List.length all) (List.length distinct);
  let counted = Topo.count_at_most ~limit g in
  if List.length all < limit then
    Alcotest.(check int) "count_at_most agrees with enumeration" (List.length all) counted

let test_topo_orders () =
  Qgen.run ~print:Qgen.print_dag ~gen:Qgen.dag "Topo orders are valid topological orders"
    prop_topo_orders_valid

(* ------------------------------------------------------------------ *)
(* Feasible tilings pass the lint pass                                 *)

let tiling_case r =
  let w = Qgen.workload r in
  (Qgen.choose r archs, w, Qgen.tiling r w)

let print_tiling_case (arch, w, c) =
  Printf.sprintf "%s %s %s" arch.Tf_arch.Arch.name (Qgen.print_workload w) (Qgen.print_tiling c)

let prop_feasible_tiling_lints_clean (arch, w, c) =
  if Tileseek.feasible arch w c then begin
    let diags = Tf_analysis.Tiling_lint.verify arch w c in
    if Tf_analysis.Diagnostic.has_errors diags then
      Alcotest.failf "feasible tiling fails lint: %s"
        (String.concat "; "
           (List.map Tf_analysis.Diagnostic.render (Tf_analysis.Diagnostic.errors diags)))
  end;
  (* The decode flavour is strictly tighter: decode-feasible implies
     encoder-feasible (the KV-cache tile only adds buffer pressure). *)
  if Tileseek.feasible ~decode:true arch w c && not (Tileseek.feasible arch w c) then
    Alcotest.fail "decode-feasible tiling infeasible without the cache term"

let test_feasible_tilings () =
  Qgen.run ~print:print_tiling_case ~gen:tiling_case "feasible tilings pass Tiling_lint"
    prop_feasible_tiling_lints_clean

(* ------------------------------------------------------------------ *)
(* TileSeek's seeds against the linear-scan oracle                     *)

(* The seed construction as it stood before [grow] bisected its menus:
   every option of a menu is tried in turn, and the last feasible one
   kept.  Production must build the same grid completions and greedy
   walks, config for config, and every walk must be a grid point. *)
module Seed_oracle = struct
  type space = { arch : Tf_arch.Arch.t; w : Workload.t; kv : int; decode : bool }

  let pow2_divisors ?(cap = max_int) n =
    let rec grow acc v = if v <= n && v <= cap && n mod v = 0 then grow (v :: acc) (2 * v) else acc in
    List.rev (grow [] 1)

  let all_divisors n = List.filter (fun k -> n mod k = 0) (List.init n (fun i -> i + 1))

  let b_options sp = pow2_divisors sp.w.Workload.batch
  let d_options sp = Tileseek.thin 12 (all_divisors sp.w.Workload.model.Tf_workloads.Model.d_model)

  let p_options sp =
    let seq = sp.w.Workload.seq_len in
    let pow2 = pow2_divisors ~cap:8192 seq in
    List.sort_uniq compare
      (pow2 @ List.filter_map (fun p -> if 3 * p <= Int.min 8192 seq then Some (3 * p) else None) pow2)

  let m0_options sp = pow2_divisors ~cap:512 sp.kv
  let m1_options sp ~m0 = pow2_divisors ~cap:64 (sp.kv / m0)
  let s_options sp = Tileseek.thin 12 (all_divisors sp.w.Workload.model.Tf_workloads.Model.ffn_hidden)
  let feasible sp c = Tileseek.feasible ~kv_len:sp.kv ~decode:sp.decode sp.arch sp.w c

  let fallback sp =
    let c =
      {
        Tileseek.b = List.hd (b_options sp);
        d = List.hd (d_options sp);
        p = List.hd (p_options sp);
        m1 = 1;
        m0 = List.hd (m0_options sp);
        s = List.hd (s_options sp);
      }
    in
    if feasible sp c then c else invalid_arg "oracle fallback: minimal tile does not fit"

  let grow sp config options update =
    List.fold_left
      (fun best option ->
        let candidate = update best option in
        if feasible sp candidate then candidate else best)
      config options

  let complete sp (c : Tileseek.config) =
    let c = grow sp c (d_options sp) (fun c d -> { c with Tileseek.d }) in
    let c = grow sp c (s_options sp) (fun c s -> { c with Tileseek.s }) in
    let c = grow sp c (m1_options sp ~m0:c.Tileseek.m0) (fun c m1 -> { c with Tileseek.m1 }) in
    grow sp c (b_options sp) (fun c b -> { c with Tileseek.b })

  let greedy_with sp ~m0_first =
    let base = fallback sp in
    let grow_p c = grow sp c (p_options sp) (fun c p -> { c with Tileseek.p }) in
    let grow_m0 c = grow sp c (m0_options sp) (fun c m0 -> { c with Tileseek.m0 }) in
    complete sp (if m0_first then grow_p (grow_m0 base) else grow_m0 (grow_p base))

  let greedy_balanced sp =
    let next options current = List.find_opt (fun a -> a > current) options in
    let progress options current =
      let len = List.length options in
      let idx = List.length (List.filter (fun o -> o <= current) options) in
      if len <= 1 then 1. else float_of_int idx /. float_of_int len
    in
    let try_bump config get set options =
      match next options (get config) with
      | Some v when feasible sp (set config v) -> (set config v, true)
      | _ -> (config, false)
    in
    let step (config : Tileseek.config) =
      let p_opts = p_options sp and m0_opts = m0_options sp in
      let p_first = progress p_opts config.Tileseek.p <= progress m0_opts config.Tileseek.m0 in
      let bump_p c =
        try_bump c (fun c -> c.Tileseek.p) (fun c p -> { c with Tileseek.p }) p_opts
      in
      let bump_m0 c =
        try_bump c (fun c -> c.Tileseek.m0) (fun c m0 -> { c with Tileseek.m0 }) m0_opts
      in
      let config, moved = if p_first then bump_p config else bump_m0 config in
      if moved then (config, true) else if p_first then bump_m0 config else bump_p config
    in
    let rec walk config =
      let config, moved = step config in
      if moved then walk config else config
    in
    complete sp (walk (fallback sp))

  let greedy_variants sp =
    [ greedy_with sp ~m0_first:false; greedy_with sp ~m0_first:true; greedy_balanced sp ]

  let grid sp =
    let base = fallback sp in
    List.concat_map
      (fun p ->
        List.filter_map
          (fun m0 ->
            let c = { base with Tileseek.p; m0 } in
            if feasible sp c then Some (complete sp c) else None)
          (m0_options sp))
      (p_options sp)
end

type seed_case = { s_arch : Tf_arch.Arch.t; s_w : Workload.t; s_kv : int; s_decode : bool }

(* Random small shapes and the presets (whose model dimensions have many
   divisors), at a key/value length equal to the sequence, a random
   power of two, or any length at all (a cache need not be a power of
   two), with and without the decode charge. *)
let seed_case r =
  let w =
    if Qgen.bool r then Qgen.workload r
    else
      Workload.v ~batch:(1 lsl Qgen.int r 7)
        (Qgen.choose r Tf_workloads.Presets.all)
        ~seq_len:(1 lsl Qgen.range r 0 16)
  in
  let s_kv =
    match Qgen.int r 3 with
    | 0 -> w.Workload.seq_len
    | 1 -> 1 lsl Qgen.range r 0 16
    | _ -> Qgen.range r 1 100_000
  in
  { s_arch = Qgen.choose r archs; s_w = w; s_kv; s_decode = Qgen.bool r }

let print_seed_case c =
  Printf.sprintf "%s %s kv=%d decode=%b" c.s_arch.Tf_arch.Arch.name (Qgen.print_workload c.s_w)
    c.s_kv c.s_decode

let prop_seeds_match_oracle c =
  let sp = { Seed_oracle.arch = c.s_arch; w = c.s_w; kv = c.s_kv; decode = c.s_decode } in
  let configs label production oracle =
    if production <> oracle then
      Alcotest.failf "%s: production [%s] <> oracle [%s]" label
        (String.concat "; " (List.map Qgen.print_tiling production))
        (String.concat "; " (List.map Qgen.print_tiling oracle))
  in
  let attempt f = match f () with v -> Ok v | exception Invalid_argument _ -> Error () in
  (match
     ( attempt (fun () -> Tileseek.seeds ~kv_len:c.s_kv ~decode:c.s_decode c.s_arch c.s_w),
       attempt (fun () ->
           (Seed_oracle.fallback sp, Seed_oracle.grid sp, Seed_oracle.greedy_variants sp)) )
   with
  | Ok seeds, Ok (fallback, grid, greedy) ->
      configs "grid completions" seeds grid;
      configs "greedy"
        [ Tileseek.greedy ~kv_len:c.s_kv ~decode:c.s_decode c.s_arch c.s_w ]
        [ List.hd greedy ];
      (* The search seeds from the grid alone: the grid is never empty
         and no greedy walk can reach a point outside it. *)
      configs "first grid point" [ List.hd grid ] [ Seed_oracle.complete sp fallback ];
      List.iter
        (fun g ->
          if not (List.mem g grid) then
            Alcotest.failf "greedy walk %s is not a grid point" (Qgen.print_tiling g))
        greedy
  | Error (), Error () -> ()
  | Ok _, Error () -> Alcotest.fail "production seeds a space whose minimal tile does not fit"
  | Error (), Ok _ -> Alcotest.fail "production refuses a space the oracle seeds");
  (* The public self-attention entry points, over the workload's own
     sequence without the decode charge. *)
  let self = { sp with Seed_oracle.kv = c.s_w.Workload.seq_len; decode = false } in
  match attempt (fun () -> Seed_oracle.fallback self) with
  | Error () -> ()
  | Ok fallback ->
      configs "public fallback" [ Tileseek.fallback c.s_arch c.s_w ] [ fallback ];
      configs "public greedy variants"
        (Tileseek.greedy_variants c.s_arch c.s_w)
        (Seed_oracle.greedy_variants self)

let test_seeds_match_oracle () =
  Qgen.run ~print:print_seed_case ~gen:seed_case
    "bisected TileSeek seeds equal the linear-scan oracle" prop_seeds_match_oracle

(* ------------------------------------------------------------------ *)
(* Differential: analytic DPipe vs event-driven replay on real
   fused-layer cascades (~50 random (arch, workload) points)           *)

let cascade_case r =
  let w = Qgen.workload r in
  (Qgen.choose r archs, w)

let print_cascade_case (arch, w) =
  Printf.sprintf "%s %s" arch.Tf_arch.Arch.name (Qgen.print_workload w)

let prop_analytic_matches_replay (arch, w) =
  let { Layer_costs.load; matrix; dag = g; _ } = Strategies.layer_problem w in
  let sched = Dpipe.schedule arch ~load ~matrix (Dpipe.plan g) in
  match Pipeline_sim.replay arch ~load ~matrix g sched with
  | Error e -> Alcotest.failf "replay deadlocked: %s" e
  | Ok outcome ->
      (* The documented Pipeline_sim tolerance (1e-6 relative). *)
      if not (Pipeline_sim.agrees ~tol:1e-6 sched outcome) then
        Alcotest.failf "analytic %.9e vs simulated %.9e exceeds 1e-6 relative"
          sched.Dpipe.makespan_cycles outcome.Pipeline_sim.makespan_cycles

let test_differential_replay () =
  Qgen.run ~count:50 ~print:print_cascade_case ~gen:cascade_case
    "analytic DPipe makespan matches Pipeline_sim on fused layers" prop_analytic_matches_replay

(* ------------------------------------------------------------------ *)
(* Differential: decode flavour degenerates to cross-attention         *)

(* When the cache length equals the workload's (projected) sequence,
   the decode step projects exactly as many K/V positions as a
   cross-attention pass — the two flavours must produce bit-identical
   results.  Searching strategies are pinned to one shared tiling
   (greedy under the stricter decode buffer model, so it is feasible
   for both flavours); the non-searching ones need no pinning. *)
let decode_cross_case r =
  let m = Qgen.model r in
  let w = Workload.v ~batch:(1 lsl Qgen.int r 3) m ~seq_len:(1 lsl Qgen.range r 0 9) in
  (Qgen.choose r archs, w, Qgen.choose r Strategies.all)

let print_decode_cross_case (arch, w, s) =
  Printf.sprintf "%s %s %s" arch.Tf_arch.Arch.name (Qgen.print_workload w) (Strategies.name s)

let prop_decode_equals_cross (arch, w, strategy) =
  let kv_len = w.Workload.seq_len in
  let tiling =
    match strategy with
    | Strategies.Fusemax_layerfuse | Strategies.Transfusion ->
        Some (Tileseek.greedy ~kv_len ~decode:true arch w)
    | Strategies.Unfused | Strategies.Flat | Strategies.Fusemax -> None
  in
  let eval attention = fst (Strategies.evaluate ?tiling ~attention arch w strategy) in
  let decode = eval (Strategies.Decode { kv_len }) in
  let cross = eval (Strategies.Cross { kv_len }) in
  let lat (r : Strategies.result) = r.Strategies.latency.Tf_costmodel.Latency.total_s in
  let energy (r : Strategies.result) = Tf_costmodel.Energy.total_pj r.Strategies.energy in
  if lat decode <> lat cross then
    Alcotest.failf "latency: decode %.17e <> cross %.17e" (lat decode) (lat cross);
  if energy decode <> energy cross then
    Alcotest.failf "energy: decode %.17e <> cross %.17e" (energy decode) (energy cross)

let test_decode_equals_cross () =
  Qgen.run ~count:50 ~print:print_decode_cross_case ~gen:decode_cross_case
    "decode at kv_len = seq_len equals cross-attention exactly" prop_decode_equals_cross

(* ------------------------------------------------------------------ *)
(* The reported search is the served search                           *)

(* [transfusion explain] (and the daemon's explain op) reports a TileSeek
   search; [eval] and [schedule] serve the tiling Strategies.evaluate
   picks.  A report is only worth reading if it explains the served
   tiling, so at the same seed and budget the two must agree. *)

let explain_case r =
  ( Qgen.choose r archs,
    Qgen.workload r,
    Qgen.choose r [ Strategies.Self; Strategies.Causal_self ] )

let print_explain_case (arch, w, attention) =
  Printf.sprintf "%s %s %s" arch.Tf_arch.Arch.name (Qgen.print_workload w)
    (match attention with Strategies.Causal_self -> "causal" | _ -> "self")

let prop_explain_serves_evaluate (arch, w, attention) =
  let iterations = 20 in
  let explained = Tf_report.Explain.run ~iterations ~seed:42 ~attention arch w in
  match
    (fst
       (Strategies.evaluate ~tileseek_iterations:iterations ~attention arch w
          Strategies.Transfusion))
      .Strategies.tiling
  with
  | None -> Alcotest.fail "TransFusion evaluation returned no tiling"
  | Some served ->
      if explained.Tf_report.Explain.tiling <> served then
        Alcotest.failf "explain reports %s, evaluate serves %s"
          (Qgen.print_tiling explained.Tf_report.Explain.tiling)
          (Qgen.print_tiling served)

let test_explain_serves_evaluate () =
  Qgen.run ~count:20 ~print:print_explain_case ~gen:explain_case
    "explain reports the tiling evaluate serves" prop_explain_serves_evaluate

(* ------------------------------------------------------------------ *)
(* The reported execution is the served execution                     *)

(* TransFusion serves the better of the DPipe schedule and the static
   layer-sequential execution per layer.  Explain must report the one
   the TransFusion phase was built from, and Verify must check the
   execution the result was priced with. *)

let prop_explain_and_verify_serve (arch, w, attention) =
  let ((r, _) as evaluated) =
    Strategies.evaluate ~tileseek_iterations:20 ~attention arch w Strategies.Transfusion
  in
  let tiling = Option.get r.Strategies.tiling in
  let layer =
    match Strategies.evaluate ~tiling ~attention arch w Strategies.Transfusion with
    | r, Some e -> (Tf_report.Explain.of_execution r e).Tf_report.Explain.layer
    | _, None -> Alcotest.fail "TransFusion returned no execution"
  in
  let name, served =
    match layer.Strategies.served with
    | `Dpipe -> ("dpipe", layer.Strategies.dpipe_cycles)
    | `Static -> ("static", layer.Strategies.static_cycles)
  in
  let phase =
    match Strategies.phases ~tiling ~attention arch w Strategies.Transfusion with
    | [ p ], _, _ -> p
    | _ -> Alcotest.fail "TransFusion builds one fused-stack phase"
  in
  let layers = float_of_int w.Workload.model.Tf_workloads.Model.layers in
  let phase_cycles = phase.Tf_costmodel.Phase.execution.Tf_costmodel.Phase.makespan_cycles in
  if served *. layers <> phase_cycles then
    Alcotest.failf "explain serves %s at %.17e x %.0f layers, the phase runs %.17e"
      name served layers phase_cycles;
  let diags = Tf_analysis.Verify.strategy_result evaluated in
  if Tf_analysis.Diagnostic.has_errors diags then
    Alcotest.failf "served result fails verification: %s" (Tf_analysis.Diagnostic.summary diags)

let test_explain_and_verify_serve () =
  Qgen.run ~count:20 ~print:print_explain_case ~gen:explain_case
    "explain reports and verify checks the served execution" prop_explain_and_verify_serve

(* ------------------------------------------------------------------ *)
(* The fast scorer equals the cold full-model path                     *)

(* The allocation-free TileSeek scorer (per-m0 slices, scalar traffic
   reductions) must price a candidate exactly as the cold path does —
   phase construction, Latency.evaluate, summed Traffic — or the search
   would optimise a different objective than the reported results. *)
let prop_scorer_matches_reference (arch, w, config) =
  if Tileseek.feasible arch w config then begin
    let fast = Strategies.Private.transfusion_scorer arch w config in
    let reference = Strategies.Private.transfusion_cost_reference arch w config in
    if fast <> reference then
      Alcotest.failf "scorer %.17e <> cold reference %.17e on %s" fast reference
        (Qgen.print_tiling config)
  end

let tiling_case r =
  let w = Qgen.workload r in
  (Qgen.choose r archs, w, Qgen.tiling r w)

let print_tiling_case (arch, w, config) =
  Printf.sprintf "%s %s tiling=%s" arch.Tf_arch.Arch.name (Qgen.print_workload w)
    (Qgen.print_tiling config)

let test_scorer_matches_reference () =
  Qgen.run ~count:50 ~print:print_tiling_case ~gen:tiling_case
    "fast candidate scorer equals the cold-path cost bit-for-bit"
    prop_scorer_matches_reference

(* ------------------------------------------------------------------ *)
(* One op table: a slice's figures are folds of the module cascades    *)

module Cascades = Transfusion.Cascades
module Phase = Tf_costmodel.Phase
module Einsum = Tf_einsum.Einsum

type table_case = {
  t_arch : Tf_arch.Arch.t;
  t_w : Workload.t;
  t_attention : Strategies.attention;
  t_ffn : bool;
  t_tiling : Tileseek.config;  (* its [m0] divides the key/value length *)
}

let table_case r =
  let w = Qgen.workload r in
  let kv_len = 1 lsl Qgen.range r 6 12 in
  let t_attention, t_w =
    match Qgen.int r 4 with
    | 0 -> (Strategies.Self, w)
    | 1 -> (Strategies.Causal_self, w)
    | 2 -> (Strategies.Cross { kv_len }, w)
    | _ ->
        let step = Workload.v ~batch:w.Workload.batch w.Workload.model ~seq_len:1 in
        (Strategies.Decode { kv_len }, step)
  in
  let a = Strategies.attention_dims ~attention:t_attention t_w in
  {
    t_arch = Qgen.choose r archs;
    t_w;
    t_attention;
    t_ffn = Qgen.bool r;
    t_tiling =
      { (Qgen.tiling r w) with Tileseek.m0 = Qgen.pow2_divisor r a.Strategies.kv_len ~cap:512 };
  }

let print_table_case c =
  Printf.sprintf "%s %s %s ffn=%b tiling=%s" c.t_arch.Tf_arch.Arch.name (Qgen.print_workload c.t_w)
    (Strategies.attention_name c.t_attention) c.t_ffn (Qgen.print_tiling c.t_tiling)

(* The attribution buckets, as Strategies normalises them. *)
let normalise per =
  let total = List.fold_left (fun acc (_, c) -> acc +. c) 0. per in
  List.map
    (fun k ->
      let c = List.fold_left (fun acc (k', c) -> if k' = k then acc +. c else acc) 0. per in
      (k, if total > 0. then c /. total else 0.25))
    [ Phase.Qkv; Phase.Mha; Phase.Layernorm; Phase.Ffn ]

(* A strategy prices one layer's op table; the whole-model phases carry
   its figures scaled by the layer count: the loads as [macs] and
   [vector_ops], and TransFusion's register-file accesses three per op
   plus the einsum I/O volumes. *)
let prop_one_op_table c =
  let w = c.t_w and arch = c.t_arch and attention = c.t_attention and include_ffn = c.t_ffn in
  let model = w.Workload.model in
  let cascades =
    [
      (Phase.Qkv, Cascades.qkv ());
      (Phase.Mha, Cascades.mha ());
      (Phase.Layernorm, Cascades.add_layernorm ());
    ]
    @ if include_ffn then [ (Phase.Ffn, Cascades.ffn model.Tf_workloads.Model.activation) ] else []
  in
  let owners (op : Einsum.t) =
    List.filter
      (fun (_, cascade) ->
        List.exists
          (fun (o : Einsum.t) -> o.Einsum.name = op.Einsum.name)
          (Tf_einsum.Cascade.ops cascade))
      cascades
  in
  let layer_ops =
    Tf_einsum.Cascade.ops (Cascades.full_layer ~include_ffn model.Tf_workloads.Model.activation)
  in
  (* The module map: every layer op is in exactly one module cascade, the
     one it is tagged with. *)
  List.iter
    (fun op ->
      match owners op with
      | [ (kind, _) ] when Cascades.module_of op = kind -> ()
      | l ->
          Alcotest.failf "op %s: %d owning cascades, tagged %s" op.Einsum.name (List.length l)
            (Phase.layer_kind_to_string (Cascades.module_of op)))
    layer_ops;
  let a = Strategies.attention_dims ~attention w in
  (* Each module cascade's loads and I/O volumes at [m0], folded in op order. *)
  let modules m0 =
    let extents = Layer_costs.tile_extents w ~m0 in
    let vol t = float_of_int (Tf_einsum.Extents.volume extents t) in
    List.map
      (fun (kind, cascade) ->
        let rows =
          Layer_costs.op_totals ~m0 ~kv_len:a.Strategies.kv_len
            ~kv_proj_len:a.Strategies.kv_proj_len ~causal:a.Strategies.causal w cascade
        in
        ( kind,
          Layer_costs.loads rows,
          List.fold_left
            (fun (r, wr) { Layer_costs.op; instances; _ } ->
              let input_vol = List.fold_left (fun acc t -> acc +. vol t) 0. op.Einsum.inputs in
              (r +. (instances *. input_vol), wr +. (instances *. vol op.Einsum.output)))
            (0., 0.) rows ))
      cascades
  in
  let layers = float_of_int model.Tf_workloads.Model.layers in
  let check what ok =
    if not ok then Alcotest.failf "%s differ from the module cascades' folds" what
  in
  let carries (t : Tf_costmodel.Traffic.t) (l : Layer_costs.loads) =
    Float.equal t.Tf_costmodel.Traffic.macs (layers *. l.Layer_costs.matrix)
    && Float.equal t.Tf_costmodel.Traffic.vector_ops (layers *. l.Layer_costs.vector)
  in
  (* The sequential strategies price one module per phase, at the
     balanced split of the key/value length. *)
  let unfused, _, _ = Strategies.phases ~attention ~include_ffn arch w Strategies.Unfused in
  check "per-module loads"
    (List.for_all2
       (fun (p : Phase.t) (kind, l, _) -> p.Phase.kind = kind && carries p.Phase.traffic l)
       unfused
       (modules (Tf_workloads.Workload.default_m0 a.Strategies.kv_len)));
  let expected = modules c.t_tiling.Tileseek.m0 in
  let phase, e =
    match
      Strategies.phases ~tiling:c.t_tiling ~attention ~include_ffn arch w Strategies.Transfusion
    with
    | [ p ], _, Some e -> (p, e)
    | _ -> Alcotest.fail "TransFusion builds one fused-stack phase and its execution"
  in
  let stack =
    List.fold_left (fun acc (_, l, _) -> Layer_costs.add_loads acc l) Layer_costs.zero expected
  in
  let io_r, io_w =
    List.fold_left (fun (r, wr) (_, _, (ir, iw)) -> (r +. ir, wr +. iw)) (0., 0.) expected
  in
  let t = phase.Phase.traffic in
  check "fused-stack loads" (carries t stack);
  check "I/O volumes"
    (Float.equal t.Tf_costmodel.Traffic.regfile_accesses
       ((3. *. ((layers *. stack.Layer_costs.matrix) +. (layers *. stack.Layer_costs.vector)))
       +. (layers *. io_r) +. (layers *. io_w)));
  let parts =
    match e.Strategies.layer.Strategies.served with
    | `Dpipe ->
        (* Busy cycles of each layer op under the served schedule, each
           attributed to the module cascade that has it. *)
        let sched = Lazy.force e.Strategies.dpipe.Strategies.schedule in
        let busy = Array.make (List.length layer_ops) 0. in
        let unrolled = float_of_int sched.Dpipe.epochs_unrolled in
        let epochs = Layer_costs.nominal_epochs in
        List.iter
          (fun (x : Dpipe.assignment) ->
            busy.(x.Dpipe.node) <-
              busy.(x.Dpipe.node)
              +. ((x.Dpipe.end_cycle -. x.Dpipe.start_cycle) *. epochs /. unrolled))
          sched.Dpipe.assignments;
        normalise (List.mapi (fun n op -> (fst (List.hd (owners op)), busy.(n))) layer_ops)
    | `Static ->
        (* The pinned attention's makespan beside the other modules'
           sequential ones. *)
        let mha = Lazy.force (Option.get e.Strategies.static_mha).Strategies.schedule in
        let seq (l : Layer_costs.loads) =
          (Phase.sequential_execution arch ~matrix_load:l.Layer_costs.matrix
             ~vector_load:l.Layer_costs.vector)
            .Phase.makespan_cycles
        in
        let rest = List.filter (fun (k, _, _) -> k <> Phase.Mha) expected in
        normalise
          ((Phase.Mha, Dpipe.total_cycles mha ~epochs:Layer_costs.nominal_epochs)
          :: List.map (fun (k, l, _) -> (k, seq l)) rest)
  in
  check "TransFusion parts"
    (List.for_all2 (fun (k, f) (k', f') -> k = k' && Float.equal f f') phase.Phase.parts parts)

let test_one_op_table () =
  Qgen.run ~print:print_table_case ~gen:table_case
    "a slice's loads, I/O volumes and parts fold the module cascades' op totals" prop_one_op_table

(* ------------------------------------------------------------------ *)
(* The op table functor at float equals the hand-written op table      *)

(* The op table as it was written before it became a functor over a
   number domain: the float instance must reproduce it bit for bit. *)
module Op_table_oracle = struct
  let instance_count ~kv_len ~kv_proj_len ~causal ~m0 (op : Einsum.t) =
    let kv_tiles = float_of_int (kv_len / m0) in
    let proj_tiles = float_of_int kv_proj_len /. float_of_int m0 in
    let indexed_by_m0 = List.mem "m0" (Einsum.all_dims op) in
    if Cascades.in_attention_loop op then if causal then 0.5 *. kv_tiles else kv_tiles
    else if indexed_by_m0 then proj_tiles
    else 1.

  (* (instances, total, 2D time, 1D time) per op, in cascade order. *)
  let rows arch ~m0 ~kv_len ~kv_proj_len ~causal (w : Workload.t) cascade =
    let extents = Layer_costs.tile_extents w ~m0 in
    let batch = float_of_int w.Workload.batch in
    List.map
      (fun op ->
        let instances = batch *. instance_count ~kv_len ~kv_proj_len ~causal ~m0 op in
        let total = instances *. Einsum.compute_load extents op in
        let time res =
          total /. 256. /. Tf_arch.Arch.effective_pes arch res ~matrix:(Einsum.is_matrix_op op)
        in
        (instances, total, time Tf_arch.Arch.Pe_2d, time Tf_arch.Arch.Pe_1d))
      (Tf_einsum.Cascade.ops cascade)
end

module Table_float = Layer_costs.Table (Transfusion.Num_domain.Float)

type op_case = {
  o_arch : Tf_arch.Arch.t;
  o_w : Workload.t;
  o_m0 : int;
  o_kv_len : int;
  o_kv_proj_len : int;
  o_causal : bool;
}

(* Random and preset models up to a 2^20 sequence; [m0] divides the
   key/value length; the projected length is the whole key/value
   sequence, a decode step's single position or anything between. *)
let op_case r =
  let o_w =
    if Qgen.bool r then Qgen.workload r
    else
      Workload.v ~batch:(1 lsl Qgen.int r 7)
        (Qgen.choose r Tf_workloads.Presets.all)
        ~seq_len:(Qgen.choose r [ 1; 1 lsl Qgen.range r 6 20 ])
  in
  let o_kv_len = 1 lsl Qgen.range r 6 20 in
  {
    o_arch = Qgen.choose r archs;
    o_w;
    o_m0 = Qgen.pow2_divisor r o_kv_len ~cap:1024;
    o_kv_len;
    o_kv_proj_len = Qgen.choose r [ o_kv_len; 1; Qgen.range r 1 o_kv_len ];
    o_causal = Qgen.bool r;
  }

let print_op_case c =
  Printf.sprintf "%s %s m0=%d kv_len=%d kv_proj_len=%d causal=%b" c.o_arch.Tf_arch.Arch.name
    (Qgen.print_workload c.o_w) c.o_m0 c.o_kv_len c.o_kv_proj_len c.o_causal

let prop_op_table_matches_oracle c =
  let cascade = Cascades.full_layer c.o_w.Workload.model.Tf_workloads.Model.activation in
  let m0 = c.o_m0 and kv_len = c.o_kv_len and kv_proj_len = c.o_kv_proj_len in
  let causal = c.o_causal and arch = c.o_arch in
  let oracle = Op_table_oracle.rows arch ~m0 ~kv_len ~kv_proj_len ~causal c.o_w cascade in
  let rows = Layer_costs.op_totals ~m0 ~kv_len ~kv_proj_len ~causal c.o_w cascade in
  let p = Layer_costs.problem ~m0 ~kv_len ~kv_proj_len ~causal c.o_w cascade in
  let check what n want got =
    if not (same_bits want got) then
      Alcotest.failf "op %d %s: %.17g, oracle %.17g" n what got want
  in
  List.iteri
    (fun n ((instances, total, t2, t1), (row : Layer_costs.op_total)) ->
      check "instances" n instances row.Layer_costs.instances;
      check "total" n total row.Layer_costs.total;
      List.iter
        (fun (res, want) ->
          let label = match res with Tf_arch.Arch.Pe_2d -> "2D" | Tf_arch.Arch.Pe_1d -> "1D" in
          check ("DPipe time on " ^ label) n want
            (Dpipe.node_latency arch ~load:p.Layer_costs.load ~matrix:p.Layer_costs.matrix n res);
          check ("functor time on " ^ label) n want
            (Table_float.node_time arch ~matrix:(p.Layer_costs.matrix n) row.Layer_costs.total res))
        [ (Tf_arch.Arch.Pe_2d, t2); (Tf_arch.Arch.Pe_1d, t1) ])
    (List.combine oracle rows)

let test_op_table_matches_oracle () =
  Qgen.run ~print:print_op_case ~gen:op_case
    "the op table functor at float equals the hand-written op table bit for bit"
    prop_op_table_matches_oracle

(* ------------------------------------------------------------------ *)
(* Tf_json: the writer's output re-parses to a value that re-renders   *)
(* to the same bytes                                                   *)

let json_string r =
  let piece r =
    match Qgen.int r 4 with
    | 0 -> String.make 1 (Char.chr (Qgen.int r 0x20))
    | 1 -> Qgen.choose r [ "\""; "\\"; "/"; "\x7f"; "\\u0041"; String.init 0x20 Char.chr ]
    | 2 -> Qgen.choose r [ "\xC3\xA9"; "\xE2\x82\xAC"; "\xF0\x9F\x98\x80"; "\xF4\x8F\xBF\xBF" ]
    | _ -> String.make 1 (Char.chr (0x20 + Qgen.int r 0x5f))
  in
  String.concat "" (List.init (Qgen.int r 6) (fun _ -> piece r))

let json_number r =
  match Qgen.int r 4 with
  | 0 ->
      Qgen.choose r
        [ Float.nan; Float.infinity; Float.neg_infinity; -0.; 1e15; 5e-324; Float.max_float;
          -13556606173900.4; 999999999999.9 ]
  | 1 -> float_of_int (Qgen.range r (-1_000_000) 1_000_000)
  | 2 -> Float.ldexp (float_of_int (Qgen.range r (-(1 lsl 30)) (1 lsl 30))) (Qgen.range r (-80) 80)
  | _ -> Int64.float_of_bits (Qgen.next_int64 r)

let rec json_value depth r : Tf_json.t =
  match Qgen.int r (if depth >= 4 then 5 else 7) with
  | 0 -> Tf_json.Null
  | 1 -> Tf_json.Bool (Qgen.bool r)
  | 2 -> Tf_json.Int (Qgen.range r (-999_999_999_999_999) 999_999_999_999_999)
  | 3 -> Tf_json.Num (json_number r)
  | 4 -> Tf_json.Str (json_string r)
  | 5 -> Tf_json.List (List.init (Qgen.int r 4) (fun _ -> json_value (depth + 1) r))
  | _ -> Tf_json.Obj (List.init (Qgen.int r 4) (fun _ -> (json_string r, json_value (depth + 1) r)))

(* The writer's one non-idempotent case, pinned here rather than kept
   out of the generator: a non-integral number whose 12 significant
   digits name an integer of 1e12 or more prints in exponent form
   ("-1.35566061739e+13"), and that integer re-renders in full
   ("-13556606173900").  Either form is in goldens and responses today,
   so the writer keeps both.  [settle] moves exactly those numbers to the
   integer they re-parse as; every other value must re-render to the
   same bytes. *)
let rec settle = function
  | Tf_json.Num f when not (Float.is_integer f) ->
      let g = float_of_string (Printf.sprintf "%.12g" f) in
      if Float.is_integer g && Float.abs g >= 1e12 && Float.abs g < 1e15 then Tf_json.Num g
      else Tf_json.Num f
  | Tf_json.List l -> Tf_json.List (List.map settle l)
  | Tf_json.Obj kv -> Tf_json.Obj (List.map (fun (k, v) -> (k, settle v)) kv)
  | v -> v

let prop_json_round_trip v =
  List.iter
    (fun (name, render) ->
      let twice = render (Tf_json.parse (render v)) and expected = render (settle v) in
      if not (String.equal twice expected) then
        failwith (Printf.sprintf "%s re-renders differently:\n%S\n%S" name expected twice))
    [ ("to_line", Tf_json.to_line); ("to_string", fun v -> Tf_json.to_string v) ]

(* Integral numbers below 1e15 render exactly as %.0f prints them; the
   goldens, cache fingerprints and echoed ids were written that way. *)
let test_json_integral_numbers () =
  Qgen.run ~print:(Printf.sprintf "%h")
    ~gen:(fun r -> Float.round (json_number r))
    "Tf_json renders integral numbers as %.0f"
    (fun f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        let line = Tf_json.to_line (Tf_json.Num f) and reference = Printf.sprintf "%.0f" f in
        if line <> reference then failwith (Printf.sprintf "%s <> %s" line reference))

let test_json_round_trip () =
  let line f = Tf_json.to_line (Tf_json.Num f) in
  Alcotest.(check (list string)) "the pinned exception"
    [ "-1.35566061739e+13"; "-13556606173900" ]
    [ line (-13556606173900.4); line (Tf_json.get_float (Tf_json.parse (line (-13556606173900.4)))) ];
  Qgen.run ~print:Tf_json.to_line ~gen:(json_value 0) "Tf_json render/parse/render is stable"
    prop_json_round_trip

(* The reader's error texts and offsets, one per failure path.  Error
   responses quote them to clients, so they are pinned byte for byte. *)
let malformed_json =
  [
    ("", "unexpected end of input at offset 0");
    ("   ", "unexpected end of input at offset 3");
    ("{", "expected \" at offset 1");
    ("{\"a\"", "expected : at offset 4");
    ("{\"a\":1", "expected , or } at offset 6");
    ("{\"a\":1,}", "expected \" at offset 7");
    ("{\"a\":1 \"b\":2}", "expected , or } at offset 7");
    ("[1,2", "expected , or ] at offset 4");
    ("[1 2]", "expected , or ] at offset 3");
    ("[1,]", "unexpected ']' at offset 3");
    ("\"abc", "unterminated string at offset 4");
    ("\"a\\x\"", "bad escape at offset 3");
    ("\"\\", "bad escape at offset 2");
    ("\"a\\u12G4\"", "bad unicode escape at offset 6");
    ("\"\\u12\"", "bad unicode escape at offset 5");
    ("\"\\udc00\"", "lone low surrogate at offset 7");
    ("\"\\ud800\"", "lone high surrogate at offset 7");
    ("\"\\ud800\\u0041\"", "lone high surrogate at offset 13");
    ("\"\\ud83d\\ude00", "unterminated string at offset 13");
    ("\"a\nb\"", "control char in string at offset 2");
    ("\"a\000b\"", "control char in string at offset 2");
    ("\000", "unexpected '\\000' at offset 0");
    ("\195\169", "unexpected '\\195' at offset 0");
    ("01", "bad number (leading zero) at offset 1");
    ("-", "bad number at offset 1");
    ("-01", "bad number (leading zero) at offset 2");
    ("1.", "bad number at offset 2");
    ("1.e5", "bad number at offset 2");
    ("1e", "bad number at offset 2");
    ("1e+", "bad number at offset 3");
    ("+1", "unexpected '+' at offset 0");
    (".5", "unexpected '.' at offset 0");
    ("tru", "expected true at offset 0");
    ("nul", "expected null at offset 0");
    ("fals", "expected false at offset 0");
    ("falsy", "expected false at offset 0");
    ("{} x", "trailing garbage at offset 3");
    ("{\"k\":[1,{\"x\":nul}]}", "expected null at offset 13");
    (String.make 600 '[', "nesting too deep at offset 513");
  ]

let test_json_malformed () =
  let error parse s = match parse s with _ -> "accepted" | exception Tf_json.Bad_json m -> m in
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) (Printf.sprintf "parse %S" input) expected (error Tf_json.parse input))
    malformed_json;
  Alcotest.(check string) "max_bytes" "input too large (5 bytes, limit 4)"
    (error (Tf_json.parse ~max_bytes:4) "12345");
  (* Short integers are summed digit by digit; they must read as the
     float [float_of_string] gives, -0 included. *)
  List.iter
    (fun s ->
      match Tf_json.parse s with
      | Tf_json.Num f ->
          let expected = float_of_string s in
          if Int64.bits_of_float f <> Int64.bits_of_float expected then
            Alcotest.failf "%s parsed as %h, expected %h" s f expected
      | _ -> Alcotest.failf "%s is not a number" s)
    [ "0"; "-0"; "7"; "-42"; "999999999999999"; "-999999999999999"; "1000000000000000";
      "9007199254740993"; "12345678901234567890"; "1e3"; "-0.0" ]

let test_json_escape_reference () =
  for code = 0 to 255 do
    let s = String.make 1 (Char.chr code) in
    Alcotest.(check string) (Printf.sprintf "escape of byte %d" code) (Tjson.escape_reference s)
      (Tf_json.escape s)
  done;
  let all = String.init 256 Char.chr in
  Alcotest.(check string) "escape of all 256 bytes" (Tjson.escape_reference all) (Tf_json.escape all);
  Alcotest.(check string) "rendered string" ("\"" ^ Tjson.escape_reference all ^ "\"")
    (Tf_json.to_line (Tf_json.Str all));
  Qgen.run ~print:(Printf.sprintf "%S") ~gen:json_string "escape equals the reference loop"
    (fun s ->
      if Tf_json.escape s <> Tjson.escape_reference s then failwith "escape differs from the reference")

(* Meta-test: a falsified property must report the seed and a shrunk
   counterexample — that message is what makes the CI seed matrix
   actionable, so we pin its shape here. *)
let test_failure_report () =
  match
    Qgen.run ~count:10 ~shrink:Qgen.shrink_int ~print:string_of_int
      ~gen:(fun r -> Qgen.range r 50 100)
      "meta" (fun n -> if n >= 10 then failwith "too big")
  with
  | () -> Alcotest.fail "property expected to be falsified"
  | exception Qgen.Falsified msg ->
      let contains sub =
        Alcotest.(check bool) (Printf.sprintf "report mentions %S" sub) true
          (let ls = String.length sub and lm = String.length msg in
           let rec go i = i + ls <= lm && (String.sub msg i ls = sub || go (i + 1)) in
           go 0)
      in
      contains "QGEN_SEED=";
      contains "shrunk counterexample: 10";
      contains "too big"

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "tf_properties"
    [
      ( "harness",
        [
          quick "failure report carries seed and shrunk input" test_failure_report;
        ] );
      ( "scheduler",
        [
          quick "dpipe random DAGs" test_dpipe_random_dags;
          quick "dpipe plan reuse" test_plan_reuse;
          quick "dpipe kernel recorded, searched and replayed" test_dpipe_kernel;
          quick "topo orders" test_topo_orders;
        ] );
      ( "model",
        [
          quick "buffer_req brute force" test_buffer_req_brute_force;
          quick "buffer_req float rows equal Gen (float)" test_buffer_req_matches_gen;
          quick "feasible tilings lint clean" test_feasible_tilings;
          quick "tileseek seeds equal the linear-scan oracle" test_seeds_match_oracle;
        ] );
      ( "differential",
        [
          quick "analytic vs replay" test_differential_replay;
          quick "decode equals cross" test_decode_equals_cross;
          quick "scorer equals cold reference" test_scorer_matches_reference;
          quick "one op table per slice" test_one_op_table;
          quick "op table functor equals the hand-written oracle" test_op_table_matches_oracle;
          quick "explain serves evaluate" test_explain_serves_evaluate;
          quick "explain and verify follow the served execution" test_explain_and_verify_serve;
          quick "json render/parse round trip" test_json_round_trip;
          quick "json integral numbers as %.0f" test_json_integral_numbers;
          quick "json malformed inputs: texts and offsets" test_json_malformed;
          quick "json escape equals the reference loop" test_json_escape_reference;
        ] );
    ]
