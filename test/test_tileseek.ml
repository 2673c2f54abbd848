(* Tests for TileSeek: feasibility against Table 2, the heuristic seeds,
   and the MCTS search behaviour on the real tiling landscape. *)

module Tileseek = Transfusion.Tileseek
module Buffer_req = Transfusion.Buffer_req
open Tf_arch
open Tf_workloads

let edge = Tf_arch.Presets.edge
let cloud = Tf_arch.Presets.cloud
let bert_4k = Workload.v Tf_workloads.Presets.bert ~seq_len:4096
let llama3_64k = Workload.v Tf_workloads.Presets.llama3 ~seq_len:65536

let config ?(b = 1) ?(d = 64) ?(p = 64) ?(m1 = 1) ?(m0 = 64) ?(s = 64) () =
  { Tileseek.b; d; p; m1; m0; s }

let test_p_row () =
  (* P' = p / rows(2D). *)
  Alcotest.(check int) "cloud 512/256" 2 (Tileseek.p_row cloud (config ~p:512 ()));
  Alcotest.(check int) "cloud small tile floors to 1" 1 (Tileseek.p_row cloud (config ~p:64 ()));
  Alcotest.(check int) "edge 64/16" 4 (Tileseek.p_row edge (config ~p:64 ()))

let test_dims_and_feasibility () =
  let c = config () in
  let dims = Tileseek.dims edge bert_4k c in
  Alcotest.(check int) "h" 12 dims.Buffer_req.h;
  Alcotest.(check int) "p" 64 dims.Buffer_req.p;
  Alcotest.(check bool) "small config feasible on edge" true (Tileseek.feasible edge bert_4k c);
  let huge = config ~b:64 ~d:768 ~p:4096 ~m0:512 ~m1:8 ~s:3072 () in
  Alcotest.(check bool) "huge config infeasible on edge" false (Tileseek.feasible edge bert_4k huge);
  (* Non-dividing m1*m0 is infeasible rather than an error. *)
  let ragged = config ~m1:3 ~m0:512 () in
  Alcotest.(check bool) "non-dividing kv tile" false (Tileseek.feasible edge bert_4k ragged)

let test_fallback () =
  List.iter
    (fun (arch, w) ->
      let c = Tileseek.fallback arch w in
      Alcotest.(check bool)
        (Printf.sprintf "fallback feasible on %s" arch.Arch.name)
        true (Tileseek.feasible arch w c))
    [ (edge, bert_4k); (cloud, bert_4k); (edge, llama3_64k); (cloud, llama3_64k) ]

let test_greedy_variants () =
  List.iter
    (fun (arch, w) ->
      let fallback = Tileseek.fallback arch w in
      List.iter
        (fun c ->
          Alcotest.(check bool) "greedy feasible" true (Tileseek.feasible arch w c);
          Alcotest.(check bool) "greedy at least as large as fallback" true
            (c.Tileseek.p >= fallback.Tileseek.p))
        (Tileseek.greedy_variants arch w))
    [ (edge, bert_4k); (cloud, llama3_64k) ]

(* A transparent objective for search behaviour tests: prefer large query
   tiles, penalise tiny key/value tiles (a convex proxy of the real
   landscape). *)
let toy_cost (c : Tileseek.config) =
  (1e6 /. float_of_int (c.Tileseek.p * c.Tileseek.b))
  +. (1e4 /. float_of_int c.Tileseek.m0)
  +. float_of_int c.Tileseek.d

let test_search_feasible_and_deterministic () =
  let run () = fst (Tileseek.search ~iterations:80 ~seed:5 edge bert_4k ~evaluate:toy_cost ()) in
  let c1 = run () and c2 = run () in
  Alcotest.(check bool) "deterministic" true (c1 = c2);
  Alcotest.(check bool) "feasible" true (Tileseek.feasible edge bert_4k c1)

let test_search_beats_fallback () =
  let fallback = Tileseek.fallback edge bert_4k in
  let c, _ = Tileseek.search ~iterations:150 edge bert_4k ~evaluate:toy_cost () in
  Alcotest.(check bool) "searched cost <= fallback cost" true (toy_cost c <= toy_cost fallback)

let test_search_stats () =
  let _, stats = Tileseek.search ~iterations:60 edge bert_4k ~evaluate:toy_cost () in
  Alcotest.(check int) "iterations" 60 stats.Transfusion.Mcts.iterations;
  Alcotest.(check bool) "evaluated terminals" true (stats.Transfusion.Mcts.terminals_evaluated > 0)

let test_pareto () =
  let latency = toy_cost in
  let energy (c : Tileseek.config) =
    (* an opposing objective: big tiles cost energy *)
    float_of_int ((c.Tileseek.p * c.Tileseek.b) + c.Tileseek.m0 + c.Tileseek.d)
  in
  let cost c = (latency c, energy c) in
  let front = Tileseek.pareto ~iterations:100 edge bert_4k ~cost () in
  Alcotest.(check bool) "non-empty front" true (front <> []);
  (* No point on the front dominates another. *)
  List.iter
    (fun (_, l, e) ->
      Alcotest.(check bool) "non-dominated" false
        (List.exists (fun (_, l', e') -> (l' < l && e' <= e) || (l' <= l && e' < e)) front))
    front;
  (* Sorted by latency, and latency-sorted implies energy-antisorted on a
     true Pareto front. *)
  let rec monotone = function
    | (_, l1, e1) :: ((_, l2, e2) :: _ as rest) ->
        l1 <= l2 && e1 >= e2 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "front shape" true (monotone front);
  (* Every front member is feasible. *)
  List.iter
    (fun (c, _, _) ->
      Alcotest.(check bool) "feasible" true (Tileseek.feasible edge bert_4k c))
    front

let test_thin () =
  let l = [ 1; 2; 4; 8; 16; 32 ] in
  Alcotest.(check (list int)) "keep 0 is empty" [] (Tileseek.thin 0 l);
  Alcotest.(check (list int)) "keep 1 keeps the head" [ 1 ] (Tileseek.thin 1 l);
  Alcotest.(check (list int)) "keep 2 spans the range" [ 1; 32 ] (Tileseek.thin 2 l);
  Alcotest.(check (list int)) "keep >= length is identity" l (Tileseek.thin 10 l);
  Alcotest.(check (list int)) "empty list" [] (Tileseek.thin 3 [])

let test_pareto_explores_m1 () =
  (* Regression: the pareto candidate pool skipped the m1 growth step the
     grid seed performs (and hard-coded m1 = 1 in the random samples), so
     the frontier could never contain a multi-tile M1 configuration even
     when one dominates.  With latency rewarding resident key/value tiles
     and energy indifferent to them, any m1 = 1 point is dominated by its
     m1-grown sibling, so the front must include m1 > 1. *)
  let latency (c : Tileseek.config) =
    1e6 /. float_of_int (c.Tileseek.m1 * c.Tileseek.m0 * c.Tileseek.p)
  in
  let energy (c : Tileseek.config) = float_of_int ((c.Tileseek.p * c.Tileseek.b) + c.Tileseek.d) in
  let cost c = (latency c, energy c) in
  let front = Tileseek.pareto ~iterations:100 edge bert_4k ~cost () in
  Alcotest.(check bool) "front explores m1 > 1" true
    (List.exists (fun ((c : Tileseek.config), _, _) -> c.Tileseek.m1 > 1) front)

let test_search_pinned () =
  (* Fixed-seed searches under the production scorer, pinned: the
     returned tiling and the cost-memo trajectory (hits and misses, seed
     passes included) must not move when the search's inner loops are
     optimised. *)
  Tf_obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Tf_obs.set_enabled false) @@ fun () ->
  let get name = Option.value ~default:0 (Tf_obs.counter_value (Tf_obs.snapshot ()) name) in
  let check label arch w ~seed ~expect ~hits ~misses =
    let evaluate = Transfusion.Strategies.Private.transfusion_scorer arch w in
    let hits0 = get "tileseek.cost_memo_hits_total" in
    let misses0 = get "tileseek.cost_memo_misses_total" in
    let c, _ = Tileseek.search ~iterations:200 ~seed arch w ~evaluate () in
    Alcotest.(check (list int)) (label ^ ": [b; d; p; m1; m0; s]") expect
      Tileseek.[ c.b; c.d; c.p; c.m1; c.m0; c.s ];
    Alcotest.(check int) (label ^ ": memo hits") hits (get "tileseek.cost_memo_hits_total" - hits0);
    Alcotest.(check int) (label ^ ": memo misses") misses
      (get "tileseek.cost_memo_misses_total" - misses0)
  in
  check "cloud/BERT/4K" cloud bert_4k ~seed:7 ~expect:[ 1; 256; 3072; 2; 256; 512 ] ~hits:0
    ~misses:359;
  check "edge/T5/16K/b8" edge
    (Workload.v ~batch:8 Tf_workloads.Presets.t5 ~seq_len:16384)
    ~seed:42 ~expect:[ 1; 256; 1024; 1; 512; 512 ] ~hits:0 ~misses:348;
  check "cloud/Llama3/64K" cloud llama3_64k ~seed:3 ~expect:[ 1; 512; 384; 1; 256; 1024 ] ~hits:0
    ~misses:227

let prop_search_always_feasible =
  QCheck.Test.make ~name:"search result is always feasible" ~count:8
    QCheck.(int_range 0 1000)
    (fun seed ->
      let c, _ = Tileseek.search ~iterations:40 ~seed edge bert_4k ~evaluate:toy_cost () in
      Tileseek.feasible edge bert_4k c)

let prop_greedy_maximal_p =
  QCheck.Test.make ~name:"greedy query tile cannot double and stay feasible" ~count:6
    QCheck.(int_range 0 100)
    (fun _ ->
      let c = Tileseek.greedy edge bert_4k in
      not (Tileseek.feasible edge bert_4k { c with Tileseek.p = c.Tileseek.p * 2 }))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "transfusion_tileseek"
    [
      ( "tileseek",
        [
          quick "P' definition" test_p_row;
          quick "dims and feasibility" test_dims_and_feasibility;
          quick "fallback" test_fallback;
          quick "greedy variants" test_greedy_variants;
          quick "search determinism" test_search_feasible_and_deterministic;
          quick "search beats fallback" test_search_beats_fallback;
          quick "search stats" test_search_stats;
          quick "pareto front" test_pareto;
          quick "divisor thinning" test_thin;
          quick "pareto explores m1" test_pareto_explores_m1;
          quick "fixed-seed searches pinned" test_search_pinned;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_search_always_feasible; prop_greedy_maximal_p ] );
    ]
