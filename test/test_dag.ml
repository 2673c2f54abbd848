(* Tests for the generic DAG library: structure, traversal, topological
   orderings and the DPipe bipartition constraints. *)

module Dag = Tf_dag.Dag
module Topo = Tf_dag.Topo
module Partition = Tf_dag.Partition

let diamond () =
  (* 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 *)
  Dag.of_edges [ (0, "a"); (1, "b"); (2, "c"); (3, "d") ] [ (0, 1); (0, 2); (1, 3); (2, 3) ]

let chain n = Dag.of_edges (List.init n (fun i -> (i, i))) (List.init (n - 1) (fun i -> (i, i + 1)))

let check_ints = Alcotest.(check (list int))

(* ------------------------------------------------------------------ *)

let test_empty () =
  Alcotest.(check int) "no nodes" 0 (Dag.node_count Dag.empty);
  Alcotest.(check int) "no edges" 0 (Dag.edge_count Dag.empty);
  Alcotest.(check bool) "acyclic" true (Dag.is_acyclic Dag.empty);
  check_ints "no sources" [] (Dag.sources Dag.empty)

let test_add_node_duplicate () =
  let g = Dag.add_node Dag.empty 1 "x" in
  Alcotest.check_raises "duplicate" (Invalid_argument "Dag.add_node: duplicate node 1") (fun () ->
      ignore (Dag.add_node g 1 "y"))

let test_add_edge_missing () =
  let g = Dag.add_node Dag.empty 1 "x" in
  Alcotest.check_raises "missing target" (Invalid_argument "Dag.add_edge: missing target 2")
    (fun () -> ignore (Dag.add_edge g 1 2));
  Alcotest.check_raises "missing source" (Invalid_argument "Dag.add_edge: missing source 5")
    (fun () -> ignore (Dag.add_edge g 5 1))

let test_structure () =
  let g = diamond () in
  Alcotest.(check int) "nodes" 4 (Dag.node_count g);
  Alcotest.(check int) "edges" 4 (Dag.edge_count g);
  check_ints "succs 0" [ 1; 2 ] (Dag.succs g 0);
  check_ints "preds 3" [ 1; 2 ] (Dag.preds g 3);
  check_ints "sources" [ 0 ] (Dag.sources g);
  check_ints "sinks" [ 3 ] (Dag.sinks g);
  Alcotest.(check int) "in_degree 3" 2 (Dag.in_degree g 3);
  Alcotest.(check string) "payload" "c" (Dag.payload g 2)

let test_duplicate_edge_ignored () =
  let g = Dag.add_edge (Dag.add_edge (chain 2) 0 1) 0 1 in
  Alcotest.(check int) "still one edge" 1 (Dag.edge_count g)

let test_edges_sorted () =
  let g = diamond () in
  Alcotest.(check (list (pair int int))) "edges" [ (0, 1); (0, 2); (1, 3); (2, 3) ] (Dag.edges g)

let test_acyclicity () =
  Alcotest.(check bool) "diamond acyclic" true (Dag.is_acyclic (diamond ()));
  let cyclic = Dag.add_edge (chain 3) 2 0 in
  Alcotest.(check bool) "cycle detected" false (Dag.is_acyclic cyclic)

let test_weak_connectivity () =
  let g = diamond () in
  Alcotest.(check bool) "whole graph" true (Dag.weakly_connected g [ 0; 1; 2; 3 ]);
  Alcotest.(check bool) "1 and 2 disconnected" false (Dag.weakly_connected g [ 1; 2 ]);
  Alcotest.(check bool) "empty" true (Dag.weakly_connected g []);
  Alcotest.(check bool) "singleton" true (Dag.weakly_connected g [ 2 ])

let test_induced () =
  let g = Dag.induced (diamond ()) [ 0; 1; 3 ] in
  Alcotest.(check int) "nodes" 3 (Dag.node_count g);
  Alcotest.(check (list (pair int int))) "edges" [ (0, 1); (1, 3) ] (Dag.edges g)

let test_map () =
  let g = Dag.map String.uppercase_ascii (diamond ()) in
  Alcotest.(check string) "payload mapped" "B" (Dag.payload g 1);
  Alcotest.(check int) "structure kept" 4 (Dag.edge_count g)

(* Topological orderings -------------------------------------------- *)

let test_topo_sort () =
  check_ints "diamond" [ 0; 1; 2; 3 ] (Topo.sort (diamond ()));
  check_ints "chain" [ 0; 1; 2; 3; 4 ] (Topo.sort (chain 5))

let test_topo_sort_cycle () =
  Alcotest.check_raises "cycle" (Invalid_argument "Topo.sort: graph has a cycle") (fun () ->
      ignore (Topo.sort (Dag.add_edge (chain 3) 2 0)))

let test_topo_is_valid () =
  let g = diamond () in
  Alcotest.(check bool) "sorted order" true (Topo.is_valid g [ 0; 1; 2; 3 ]);
  Alcotest.(check bool) "other valid order" true (Topo.is_valid g [ 0; 2; 1; 3 ]);
  Alcotest.(check bool) "violates edge" false (Topo.is_valid g [ 1; 0; 2; 3 ]);
  Alcotest.(check bool) "wrong length" false (Topo.is_valid g [ 0; 1; 2 ]);
  Alcotest.(check bool) "duplicate" false (Topo.is_valid g [ 0; 1; 1; 3 ])

let test_topo_all () =
  let g = diamond () in
  let orders = Topo.all g in
  Alcotest.(check int) "two orders" 2 (List.length orders);
  List.iter (fun o -> Alcotest.(check bool) "valid" true (Topo.is_valid g o)) orders;
  check_ints "lexicographically first equals sort" (Topo.sort g) (List.hd orders)

let test_topo_all_limit () =
  (* An antichain of n nodes has n! orders; the limit truncates. *)
  let antichain = Dag.of_edges (List.init 6 (fun i -> (i, ()))) [] in
  Alcotest.(check int) "limit respected" 10 (List.length (Topo.all ~limit:10 antichain));
  Alcotest.(check int) "count_at_most" 10 (Topo.count_at_most ~limit:10 antichain)

(* Bipartitions ------------------------------------------------------ *)

let test_partition_chain () =
  (* A chain of n has exactly n-1 valid bipartitions (every prefix). *)
  let g = chain 5 in
  let parts = Partition.enumerate g in
  Alcotest.(check int) "prefix count" 4 (List.length parts);
  List.iter (fun p -> Alcotest.(check bool) "valid" true (Partition.is_valid g p)) parts

let test_partition_diamond () =
  let g = diamond () in
  let parts = Partition.enumerate g in
  List.iter (fun p -> Alcotest.(check bool) "valid" true (Partition.is_valid g p)) parts;
  (* {0} and {0,1,2} are valid; {0,1} and {0,2} leave a disconnected
     second side?  The second side {2,3} of {0,1} is weakly connected via
     2->3, so it is valid too. *)
  Alcotest.(check bool) "contains {0}" true
    (List.exists (fun p -> p.Partition.first = [ 0 ]) parts);
  Alcotest.(check bool) "contains {0;1;2}" true
    (List.exists (fun p -> p.Partition.first = [ 0; 1; 2 ]) parts)

let test_partition_constraints () =
  let g = diamond () in
  let invalid cases = List.iter (fun (label, p) ->
      Alcotest.(check bool) label false (Partition.is_valid g p)) cases in
  invalid
    [
      ("sink in first", { Partition.first = [ 0; 3 ]; second = [ 1; 2 ] });
      ("source in second", { Partition.first = [ 1 ]; second = [ 0; 2; 3 ] });
      ("not dependency complete", { Partition.first = [ 0; 3 ]; second = [ 1; 2 ] });
      ("empty first", { Partition.first = []; second = [ 0; 1; 2; 3 ] });
      ("overlapping", { Partition.first = [ 0; 1 ]; second = [ 1; 2; 3 ] });
      ("not a partition", { Partition.first = [ 0 ]; second = [ 2; 3 ] });
    ]

let test_partition_limit () =
  let g = chain 20 in
  Alcotest.(check int) "limited" 5 (List.length (Partition.enumerate ~limit:5 g))

let test_partition_first_in_topo_order () =
  (* 2 -> 0, 2 -> 1, 0 -> 3, 1 -> 3: the first side lists its nodes in
     topological order (2 before 0), the second side ascending. *)
  let g = Dag.of_edges (List.init 4 (fun i -> (i, i))) [ (2, 0); (2, 1); (0, 3); (1, 3) ] in
  let parts = Partition.enumerate g in
  Alcotest.(check bool) "{2 0 | 1 3}" true
    (List.mem { Partition.first = [ 2; 0 ]; second = [ 1; 3 ] } parts);
  Alcotest.(check (list string)) "all, in order"
    [ "{2 | 0 1 3}"; "{2 1 | 0 3}"; "{2 0 | 1 3}"; "{2 0 1 | 3}" ]
    (List.map (Fmt.str "%a" Partition.pp) parts)

(* Enumerator oracle ------------------------------------------------- *)

(* The enumerator as it was before its dense-array rewrite: walk every
   predecessor-closed subset in topological order (second-side branch
   first) and keep the leaves that pass [Partition.is_valid].  The
   rewrite must return exactly these bipartitions, in this order, for
   every limit: DPipe ranks them with a stable sort and matches warm
   hints against them. *)
let reference_enumerate ?(limit = 512) g =
  let order = Topo.sort g in
  let sinks = Dag.sinks g in
  let results = ref [] and found = ref 0 in
  let rec go remaining first_rev in_first =
    if !found < limit then
      match remaining with
      | [] ->
          let first = List.rev first_rev in
          let second = List.filter (fun id -> not (Hashtbl.mem in_first id)) (Dag.nodes g) in
          let candidate = { Partition.first; second } in
          if Partition.is_valid g candidate then begin
            incr found;
            results := candidate :: !results
          end
      | id :: rest ->
          go rest first_rev in_first;
          if List.for_all (Hashtbl.mem in_first) (Dag.preds g id) && not (List.mem id sinks)
          then begin
            Hashtbl.replace in_first id ();
            go rest (id :: first_rev) in_first;
            Hashtbl.remove in_first id
          end
  in
  go order [] (Hashtbl.create 16);
  List.rev !results

(* A seeded random DAG whose ids are scattered and whose edges follow a
   random hidden order, so topological order and id order disagree. *)
let seeded_dag seed =
  let rng = Random.State.make [| seed |] in
  let n = 1 + Random.State.int rng 12 in
  let ids = Array.init n (fun i -> (3 * i) + 1) in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = ids.(i) in
    ids.(i) <- ids.(j);
    ids.(j) <- t
  done;
  let density = 0.15 +. Random.State.float rng 0.5 in
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Random.State.float rng 1. < density then edges := (ids.(i), ids.(j)) :: !edges
    done
  done;
  Dag.of_edges (Array.to_list (Array.map (fun id -> (id, ())) ids)) !edges

let oracle_limits = [ 1; 3; 5; 512 ]

let check_against_reference label g =
  List.iter
    (fun limit ->
      let expected = List.map (Fmt.str "%a" Partition.pp) (reference_enumerate ~limit g) in
      let actual = List.map (Fmt.str "%a" Partition.pp) (Partition.enumerate ~limit g) in
      Alcotest.(check (list string)) (Printf.sprintf "%s limit %d" label limit) expected actual)
    oracle_limits

let test_partition_oracle_random () =
  for seed = 0 to 299 do
    check_against_reference (Printf.sprintf "seed %d" seed) (seeded_dag seed)
  done

let test_partition_oracle_cascades () =
  let module Cascade = Tf_einsum.Cascade in
  let module Cascades = Transfusion.Cascades in
  let gelu = Tf_einsum.Scalar_op.Gelu in
  List.iter
    (fun cascade -> check_against_reference (Cascade.name cascade) (Cascade.to_dag cascade))
    [
      Cascades.mha ();
      Cascade.concat ~name:"transformer_layer_noffn"
        [ Cascades.qkv (); Cascades.mha (); Cascades.add_layernorm () ];
      Cascades.full_layer gelu;
      Cascades.qkv ();
      Cascades.add_layernorm ();
      Cascades.ffn gelu;
    ]

(* Property tests ---------------------------------------------------- *)

let random_dag_gen =
  (* Random DAG on n nodes: edges only i -> j for i < j, so acyclic by
     construction. *)
  QCheck.Gen.(
    sized_size (int_range 1 10) (fun n ->
        let pairs =
          List.concat_map (fun i -> List.init (n - i - 1) (fun k -> (i, i + k + 1))) (List.init n Fun.id)
        in
        let* keep = flatten_l (List.map (fun p -> map (fun b -> (p, b)) bool) pairs) in
        let edges = List.filter_map (fun (p, b) -> if b then Some p else None) keep in
        return (Dag.of_edges (List.init n (fun i -> (i, i))) edges)))

let arbitrary_dag = QCheck.make ~print:(fun g -> Fmt.str "%a" (Dag.pp Fmt.int) g) random_dag_gen

let prop_sort_valid =
  QCheck.Test.make ~name:"topo sort is a valid order" ~count:200 arbitrary_dag (fun g ->
      Topo.is_valid g (Topo.sort g))

let prop_all_orders_valid =
  QCheck.Test.make ~name:"all enumerated orders are valid" ~count:100 arbitrary_dag (fun g ->
      List.for_all (Topo.is_valid g) (Topo.all ~limit:20 g))

let prop_random_dag_acyclic =
  QCheck.Test.make ~name:"construction is acyclic" ~count:200 arbitrary_dag Dag.is_acyclic

let prop_partitions_valid =
  QCheck.Test.make ~name:"enumerated bipartitions satisfy the constraints" ~count:100
    arbitrary_dag (fun g ->
      List.for_all (Partition.is_valid g) (Partition.enumerate ~limit:64 g))

let prop_partition_union =
  QCheck.Test.make ~name:"bipartition sides partition the node set" ~count:100 arbitrary_dag
    (fun g ->
      List.for_all
        (fun (p : Partition.t) ->
          List.sort_uniq compare (p.Partition.first @ p.Partition.second) = Dag.nodes g)
        (Partition.enumerate ~limit:64 g))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "tf_dag"
    [
      ( "dag",
        [
          quick "empty graph" test_empty;
          quick "duplicate node rejected" test_add_node_duplicate;
          quick "edge endpoints checked" test_add_edge_missing;
          quick "structure queries" test_structure;
          quick "duplicate edges ignored" test_duplicate_edge_ignored;
          quick "edges sorted" test_edges_sorted;
          quick "acyclicity" test_acyclicity;
          quick "weak connectivity" test_weak_connectivity;
          quick "induced subgraph" test_induced;
          quick "payload map" test_map;
        ] );
      ( "topo",
        [
          quick "sort" test_topo_sort;
          quick "sort rejects cycles" test_topo_sort_cycle;
          quick "is_valid" test_topo_is_valid;
          quick "all orders of diamond" test_topo_all;
          quick "enumeration limit" test_topo_all_limit;
        ] );
      ( "partition",
        [
          quick "chain prefixes" test_partition_chain;
          quick "diamond" test_partition_diamond;
          quick "constraint violations rejected" test_partition_constraints;
          quick "limit" test_partition_limit;
          quick "first side in topological order" test_partition_first_in_topo_order;
          quick "oracle: 300 seeded random DAGs" test_partition_oracle_random;
          quick "oracle: layer cascades" test_partition_oracle_cascades;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_sort_valid;
            prop_all_orders_valid;
            prop_random_dag_acyclic;
            prop_partitions_valid;
            prop_partition_union;
          ] );
    ]
