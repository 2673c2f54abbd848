(* Tests for the Extended-Einsum IR: scalar operations, tensor references,
   extent environments, operation validation, load analysis (paper Eq. 40)
   and cascades. *)

open Tf_einsum

let r = Tensor_ref.v

(* Scalar operations ------------------------------------------------- *)

let test_scalar_semantics () =
  let check name expected op args =
    Alcotest.(check (float 1e-12)) name expected (Scalar_op.apply op args)
  in
  check "add" 5. Scalar_op.Add [ 2.; 3. ];
  check "sub" (-1.) Scalar_op.Sub [ 2.; 3. ];
  check "mul" 6. Scalar_op.Mul [ 2.; 3. ];
  check "div" 2.5 Scalar_op.Div [ 5.; 2. ];
  check "max2" 3. Scalar_op.Max2 [ 2.; 3. ];
  check "exp" (exp 1.5) Scalar_op.Exp [ 1.5 ];
  check "exp_diff" (exp (-1.)) Scalar_op.Exp_diff [ 2.; 3. ];
  check "rsqrt" 0.5 Scalar_op.Rsqrt [ 4. ];
  check "copy" 7. Scalar_op.Copy [ 7. ];
  check "relu positive" 2. (Scalar_op.Activation Scalar_op.Relu) [ 2. ];
  check "relu negative" 0. (Scalar_op.Activation Scalar_op.Relu) [ -2. ];
  check "sigmoid at 0" 0.5 (Scalar_op.Activation Scalar_op.Sigmoid) [ 0. ];
  check "silu at 0" 0. (Scalar_op.Activation Scalar_op.Silu) [ 0. ]

let test_scalar_arity () =
  Alcotest.check_raises "add arity" (Invalid_argument "Scalar_op.apply: arity mismatch") (fun () ->
      ignore (Scalar_op.apply Scalar_op.Add [ 1. ]))

let test_scalar_costs () =
  Alcotest.(check (float 0.)) "add" 1.0 (Scalar_op.cost_factor Scalar_op.Add);
  Alcotest.(check (float 0.)) "div" 2.0 (Scalar_op.cost_factor Scalar_op.Div);
  Alcotest.(check (float 0.)) "exp" 2.0 (Scalar_op.cost_factor Scalar_op.Exp);
  Alcotest.(check (float 0.)) "relu" 1.0 (Scalar_op.cost_factor (Scalar_op.Activation Scalar_op.Relu));
  Alcotest.(check (float 0.)) "gelu" 2.0 (Scalar_op.cost_factor (Scalar_op.Activation Scalar_op.Gelu));
  Alcotest.(check (float 0.)) "reduce" 1.0 (Scalar_op.reduce_cost_factor Scalar_op.Sum)

let test_reduce_semantics () =
  Alcotest.(check (float 0.)) "sum identity" 0. (Scalar_op.reduce_identity Scalar_op.Sum);
  Alcotest.(check (float 0.)) "max identity" Float.neg_infinity
    (Scalar_op.reduce_identity Scalar_op.Max_reduce);
  Alcotest.(check (float 0.)) "sum" 5. (Scalar_op.reduce_apply Scalar_op.Sum 2. 3.);
  Alcotest.(check (float 0.)) "max" 3. (Scalar_op.reduce_apply Scalar_op.Max_reduce 2. 3.)

(* Tensor references and extents ------------------------------------- *)

let test_tensor_ref () =
  let q = r "Q" [ "h"; "e"; "p" ] in
  Alcotest.(check int) "rank" 3 (Tensor_ref.rank q);
  Alcotest.(check string) "to_string" "Q[h,e,p]" (Tensor_ref.to_string q);
  Alcotest.(check string) "scalar" "G" (Tensor_ref.to_string (Tensor_ref.scalar "G"));
  Alcotest.check_raises "duplicate index" (Invalid_argument "Tensor_ref.v: duplicate index in X")
    (fun () -> ignore (r "X" [ "a"; "a" ]))

let test_indices_of_many () =
  Alcotest.(check (list string)) "union sorted" [ "e"; "h"; "m0"; "p" ]
    (Tensor_ref.indices_of_many [ r "Q" [ "h"; "e"; "p" ]; r "K" [ "h"; "e"; "m0" ] ])

let test_extents () =
  let e = Extents.of_list [ ("a", 2); ("b", 3) ] in
  Alcotest.(check int) "find" 3 (Extents.find e "b");
  Alcotest.(check int) "product" 6 (Extents.product e [ "a"; "b" ]);
  Alcotest.(check int) "empty product" 1 (Extents.product e []);
  Alcotest.(check int) "volume" 6 (Extents.volume e (r "X" [ "a"; "b" ]));
  Alcotest.(check bool) "mem" false (Extents.mem e "z");
  Alcotest.check_raises "duplicate" (Invalid_argument "Extents.of_list: duplicate a") (fun () ->
      ignore (Extents.of_list [ ("a", 1); ("a", 2) ]));
  Alcotest.check_raises "non-positive" (Invalid_argument "Extents.add: extent 0 for z") (fun () ->
      ignore (Extents.add "z" 0 e))

(* Einsum operations -------------------------------------------------- *)

let matmul = Einsum.contraction (r "Z" [ "m"; "n" ]) [ r "A" [ "m"; "k" ]; r "B" [ "k"; "n" ] ]

let test_validation () =
  let raises label f =
    Alcotest.(check bool) label true (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  raises "contraction arity" (fun () -> Einsum.contraction (r "Z" [ "m" ]) [ r "A" [ "m" ] ]);
  raises "contraction output index unbound" (fun () ->
      Einsum.contraction (r "Z" [ "q" ]) [ r "A" [ "m" ]; r "B" [ "m" ] ]);
  raises "reduce must reduce" (fun () ->
      Einsum.reduce Scalar_op.Sum (r "Z" [ "m" ]) (r "A" [ "m" ]));
  raises "reduce output subset" (fun () ->
      Einsum.reduce Scalar_op.Sum (r "Z" [ "q" ]) (r "A" [ "m" ]));
  raises "map broadcast violation" (fun () ->
      Einsum.map Scalar_op.Copy (r "Z" [ "m" ]) [ r "A" [ "m"; "k" ] ]);
  raises "map arity" (fun () -> Einsum.map Scalar_op.Add (r "Z" [ "m" ]) [ r "A" [ "m" ] ])

let test_dims () =
  Alcotest.(check (list string)) "output dims" [ "m"; "n" ] (Einsum.output_dims matmul);
  Alcotest.(check (list string)) "reduction dims" [ "k" ] (Einsum.reduction_dims matmul);
  Alcotest.(check (list string)) "all dims" [ "k"; "m"; "n" ] (Einsum.all_dims matmul)

let test_compute_load () =
  let extents = Extents.of_list [ ("m", 4); ("k", 5); ("n", 6) ] in
  (* Eq. 40: product of output dims times product of reduction dims. *)
  Alcotest.(check (float 0.)) "contraction load" (4. *. 6. *. 5.) (Einsum.compute_load extents matmul);
  let expmap = Einsum.map Scalar_op.Exp (r "Z2" [ "m"; "n" ]) [ r "A" [ "m"; "n" ] ] in
  Alcotest.(check (float 0.)) "map load scaled by cost factor" (4. *. 6. *. 2.)
    (Einsum.compute_load extents expmap);
  let red = Einsum.reduce Scalar_op.Sum (r "Z3" [ "m" ]) (r "A" [ "m"; "k" ]) in
  Alcotest.(check (float 0.)) "reduce load" (4. *. 5.) (Einsum.compute_load extents red)

let test_matrix_class () =
  Alcotest.(check bool) "matmul is matrix" true (Einsum.is_matrix_op matmul);
  let broadcast_mul = Einsum.map Scalar_op.Mul (r "Z4" [ "m" ]) [ r "A" [ "m" ]; r "B" [ "m" ] ] in
  Alcotest.(check bool) "map is vector" false (Einsum.is_matrix_op broadcast_mul);
  let red = Einsum.reduce Scalar_op.Sum (r "Z5" [ "m" ]) (r "A" [ "m"; "k" ]) in
  Alcotest.(check bool) "reduce is vector" false (Einsum.is_matrix_op red)

let test_naming () =
  Alcotest.(check string) "default name" "Z" matmul.Einsum.name;
  Alcotest.(check string) "output tensor" "Z" (Einsum.output_tensor matmul);
  Alcotest.(check (list string)) "input tensors" [ "A"; "B" ] (Einsum.input_tensors matmul)

(* Cascades ----------------------------------------------------------- *)

let softmax_cascade () =
  (* The extended-einsum softmax of paper Eq. 6-8. *)
  Cascade.v ~name:"softmax"
    [
      Einsum.reduce Scalar_op.Max_reduce (Tensor_ref.scalar "G") (r "I" [ "m" ]);
      Einsum.map Scalar_op.Exp_diff (r "S" [ "m" ]) [ r "I" [ "m" ]; Tensor_ref.scalar "G" ];
      Einsum.reduce Scalar_op.Sum (Tensor_ref.scalar "D") (r "S" [ "m" ]);
      Einsum.map Scalar_op.Div (r "A" [ "m" ]) [ r "S" [ "m" ]; Tensor_ref.scalar "D" ];
    ]

let test_cascade_structure () =
  let c = softmax_cascade () in
  Alcotest.(check int) "length" 4 (Cascade.length c);
  Alcotest.(check (list string)) "externals" [ "I" ] (Cascade.external_inputs c);
  Alcotest.(check (list string)) "results" [ "A" ] (Cascade.results c);
  Alcotest.(check (list string)) "produced" [ "G"; "S"; "D"; "A" ] (Cascade.produced c);
  Alcotest.(check (list string)) "indices" [ "m" ] (Cascade.indices c)

let test_cascade_dag () =
  let g = Cascade.to_dag (softmax_cascade ()) in
  Alcotest.(check bool) "acyclic" true (Tf_dag.Dag.is_acyclic g);
  Alcotest.(check (list (pair int int))) "edges" [ (0, 1); (1, 2); (1, 3); (2, 3) ]
    (Tf_dag.Dag.edges g)

let test_cascade_validation () =
  let raises label f =
    Alcotest.(check bool) label true (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  raises "duplicate op name" (fun () -> Cascade.v [ matmul; matmul ]);
  raises "tensor produced twice" (fun () ->
      Cascade.v
        [
          Einsum.map ~name:"first" Scalar_op.Copy (r "Z" [ "m" ]) [ r "A" [ "m" ] ];
          Einsum.map ~name:"second" Scalar_op.Copy (r "Z" [ "m" ]) [ r "B" [ "m" ] ];
        ]);
  raises "read before produced" (fun () ->
      Cascade.v
        [
          Einsum.map Scalar_op.Copy (r "Y" [ "m" ]) [ r "Z" [ "m" ] ];
          Einsum.map Scalar_op.Copy (r "Z" [ "m" ]) [ r "A" [ "m" ] ];
        ])

let test_cascade_concat () =
  let a = Cascade.v ~name:"a" [ Einsum.map Scalar_op.Copy (r "Y" [ "m" ]) [ r "X" [ "m" ] ] ] in
  let b = Cascade.v ~name:"b" [ Einsum.map Scalar_op.Exp (r "Z" [ "m" ]) [ r "Y" [ "m" ] ] ] in
  let c = Cascade.concat ~name:"ab" [ a; b ] in
  Alcotest.(check (list string)) "externals" [ "X" ] (Cascade.external_inputs c);
  Alcotest.(check (list string)) "results" [ "Z" ] (Cascade.results c)

let test_check_extents () =
  let c = softmax_cascade () in
  (match Cascade.check_extents (Extents.of_list [ ("m", 4) ]) c with
  | Ok () -> ()
  | Error e -> Alcotest.failf "unexpected error %s" e);
  match Cascade.check_extents Extents.empty c with
  | Ok () -> Alcotest.fail "expected unbound index"
  | Error _ -> ()

(* Properties --------------------------------------------------------- *)

let prop_contraction_load =
  QCheck.Test.make ~name:"contraction load = |out| * |red| (Eq. 40)" ~count:200
    QCheck.(triple (int_range 1 16) (int_range 1 16) (int_range 1 16))
    (fun (m, k, n) ->
      let extents = Extents.of_list [ ("m", m); ("k", k); ("n", n) ] in
      Einsum.compute_load extents matmul = float_of_int (m * k * n))

let prop_cascade_chain =
  QCheck.Test.make ~name:"cascade chains: DAG, externals, results" ~count:50
    QCheck.(int_range 1 20)
    (fun n ->
      let ops =
        List.init n (fun i ->
            let src = if i = 0 then "X" else Printf.sprintf "T%d" (i - 1) in
            Einsum.map Scalar_op.Exp (r (Printf.sprintf "T%d" i) [ "m" ]) [ r src [ "m" ] ])
      in
      let c = Cascade.v ops in
      Tf_dag.Dag.is_acyclic (Cascade.to_dag c)
      && Cascade.external_inputs c = [ "X" ]
      && Cascade.results c = [ Printf.sprintf "T%d" (n - 1) ])

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "tf_einsum"
    [
      ( "scalar_op",
        [
          quick "semantics" test_scalar_semantics;
          quick "arity errors" test_scalar_arity;
          quick "cost factors" test_scalar_costs;
          quick "reductions" test_reduce_semantics;
        ] );
      ( "refs_extents",
        [
          quick "tensor refs" test_tensor_ref;
          quick "index union" test_indices_of_many;
          quick "extent environments" test_extents;
        ] );
      ( "einsum",
        [
          quick "validation" test_validation;
          quick "dimension classification" test_dims;
          quick "compute load (Eq. 40)" test_compute_load;
          quick "matrix vs vector class" test_matrix_class;
          quick "naming" test_naming;
        ] );
      ( "cascade",
        [
          quick "structure" test_cascade_structure;
          quick "dependency DAG" test_cascade_dag;
          quick "validation" test_cascade_validation;
          quick "concat" test_cascade_concat;
          quick "check_extents" test_check_extents;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_contraction_load; prop_cascade_chain ] );
    ]
