open Tf_einsum
module Dag = Tf_dag.Dag

let lint_ops (ops : Einsum.t list) =
  let name = "cascade" in
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let producers = Hashtbl.create 16 in
  List.iteri
    (fun i (o : Einsum.t) ->
      let out = Einsum.output_tensor o in
      if not (Hashtbl.mem producers out) then Hashtbl.add producers out i)
    ops;
  let seen_names = Hashtbl.create 16 in
  List.iteri
    (fun i (o : Einsum.t) ->
      (match Hashtbl.find_opt seen_names o.Einsum.name with
      | Some j ->
          emit
            (Diagnostic.error ~context:name ~op:o.Einsum.name ~node:i ~code:"E-OP-DUP"
               (Printf.sprintf "operation name %s already used at position %d" o.Einsum.name j))
      | None -> Hashtbl.add seen_names o.Einsum.name i);
      let out = Einsum.output_tensor o in
      (match Hashtbl.find_opt producers out with
      | Some j when j <> i ->
          emit
            (Diagnostic.error ~context:name ~op:o.Einsum.name ~node:i ~code:"E-TENSOR-DUP"
               (Printf.sprintf "tensor %s already produced at position %d" out j))
      | _ -> ());
      List.iter
        (fun input ->
          match Hashtbl.find_opt producers input with
          | Some j when j >= i ->
              emit
                (Diagnostic.error ~context:name ~op:o.Einsum.name ~node:i ~code:"E-USE-BEFORE-DEF"
                   (Printf.sprintf "reads %s, produced later at position %d" input j))
          | _ -> ())
        (Einsum.input_tensors o))
    ops;
  List.rev !diags

(* Every reference to a tensor must agree with the first one on rank and,
   position by position, on the extent of each dimension.  The first
   reference (the producing one, for intermediates) is canonical. *)
let shape_checks ~name ?extents cascade =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let canonical : (string, string * Tensor_ref.t) Hashtbl.t = Hashtbl.create 32 in
  let extent i = Option.bind extents (fun e -> Extents.find_opt e i) in
  let check_ref op_name (ref_ : Tensor_ref.t) =
    match Hashtbl.find_opt canonical ref_.Tensor_ref.tensor with
    | None -> Hashtbl.add canonical ref_.Tensor_ref.tensor (op_name, ref_)
    | Some (first_op, first) ->
        if Tensor_ref.rank first <> Tensor_ref.rank ref_ then
          emit
            (Diagnostic.error ~context:name ~op:op_name ~code:"E-TENSOR-RANK"
               (Printf.sprintf "%s has rank %d here but rank %d in op %s"
                  ref_.Tensor_ref.tensor (Tensor_ref.rank ref_) (Tensor_ref.rank first) first_op))
        else
          List.iteri
            (fun k (i, i') ->
              if i <> i' then
                match (extent i, extent i') with
                | Some e, Some e' when e <> e' ->
                    emit
                      (Diagnostic.error ~context:name ~op:op_name ~code:"E-IDX-EXTENT"
                         (Printf.sprintf
                            "%s dimension %d is %s (extent %d) here but %s (extent %d) in op %s"
                            ref_.Tensor_ref.tensor k i' e' i e first_op))
                | _ ->
                    emit
                      (Diagnostic.warning ~context:name ~op:op_name ~code:"W-IDX-ALIAS"
                         (Printf.sprintf "%s dimension %d is indexed %s here but %s in op %s"
                            ref_.Tensor_ref.tensor k i' i first_op)))
            (List.combine first.Tensor_ref.indices ref_.Tensor_ref.indices)
  in
  List.iter
    (fun (o : Einsum.t) ->
      check_ref o.Einsum.name o.Einsum.output;
      List.iter (check_ref o.Einsum.name) o.Einsum.inputs)
    (Cascade.ops cascade);
  List.rev !diags

let unbound_checks ~name extents cascade =
  let reported = Hashtbl.create 8 in
  List.concat_map
    (fun (o : Einsum.t) ->
      List.filter_map
        (fun i ->
          if Extents.mem extents i || Hashtbl.mem reported i then None
          else begin
            Hashtbl.add reported i ();
            Some
              (Diagnostic.error ~context:name ~op:o.Einsum.name ~code:"E-IDX-UNBOUND"
                 (Printf.sprintf "index %s has no extent binding" i))
          end)
        (Einsum.all_dims o))
    (Cascade.ops cascade)

(* Liveness: an operation is live when its output reaches a root through
   the cascade DAG.  With the default roots (the cascade's results) every
   operation is live by construction. *)
let liveness_checks ~name ~roots ~expected_inputs cascade =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let ops = Array.of_list (Cascade.ops cascade) in
  let g = Cascade.to_dag cascade in
  let produced = Cascade.produced cascade in
  List.iter
    (fun root ->
      if not (List.mem root produced) then
        emit
          (Diagnostic.error ~context:name ~code:"E-RESULT-MISSING"
             (Printf.sprintf "expected result %s is never produced" root)))
    roots;
  let live = Hashtbl.create 16 in
  let rec mark n =
    if not (Hashtbl.mem live n) then begin
      Hashtbl.add live n ();
      List.iter mark (Dag.preds g n)
    end
  in
  Array.iteri (fun i o -> if List.mem (Einsum.output_tensor o) roots then mark i) ops;
  Array.iteri
    (fun i (o : Einsum.t) ->
      if not (Hashtbl.mem live i) then
        emit
          (Diagnostic.warning ~context:name ~op:o.Einsum.name ~node:i ~code:"W-DEAD-TENSOR"
             (Printf.sprintf "output %s reaches no result of the cascade" (Einsum.output_tensor o))))
    ops;
  let live_reads = Hashtbl.create 16 in
  Array.iteri
    (fun i (o : Einsum.t) ->
      if Hashtbl.mem live i then
        List.iter (fun t -> Hashtbl.replace live_reads t ()) (Einsum.input_tensors o))
    ops;
  let externals = Cascade.external_inputs cascade in
  (match expected_inputs with
  | None ->
      List.iter
        (fun ext ->
          if not (Hashtbl.mem live_reads ext) then
            emit
              (Diagnostic.warning ~context:name ~code:"W-UNUSED-INPUT"
                 (Printf.sprintf "external input %s is only read by dead operations" ext)))
        externals
  | Some expected ->
      List.iter
        (fun ext ->
          if not (List.mem ext expected) then
            emit
              (Diagnostic.error ~context:name ~code:"E-INPUT-UNDECLARED"
                 (Printf.sprintf "external input %s is not a declared input" ext)))
        externals;
      List.iter
        (fun exp ->
          if not (Hashtbl.mem live_reads exp) then
            emit
              (Diagnostic.warning ~context:name ~code:"W-UNUSED-INPUT"
                 (Printf.sprintf "declared input %s is never read by a live operation" exp)))
        expected);
  List.rev !diags

let style_checks ~name cascade =
  let indices = Cascade.indices cascade in
  let tensors =
    List.concat_map
      (fun (o : Einsum.t) -> Einsum.output_tensor o :: Einsum.input_tensors o)
      (Cascade.ops cascade)
    |> List.sort_uniq compare
  in
  let shadows =
    List.filter_map
      (fun t ->
        if List.mem t indices then
          Some
            (Diagnostic.warning ~context:name ~code:"W-NAME-SHADOW"
               (Printf.sprintf "tensor %s shadows the index of the same name" t))
        else None)
      tensors
  in
  let degenerate =
    List.mapi (fun i o -> (i, o)) (Cascade.ops cascade)
    |> List.filter_map (fun (i, (o : Einsum.t)) ->
           match o.Einsum.kind with
           | Einsum.Contraction when Einsum.reduction_dims o = [] ->
               Some
                 (Diagnostic.warning ~context:name ~op:o.Einsum.name ~node:i
                    ~code:"W-CONTRACT-DEGENERATE"
                    "contraction has no reduction index (element-wise work on the 2D array)")
           | _ -> None)
  in
  shadows @ degenerate

let lint ?extents ?roots ?expected_inputs cascade =
  let name = Cascade.name cascade in
  let roots = match roots with Some r -> r | None -> Cascade.results cascade in
  shape_checks ~name ?extents cascade
  @ (match extents with Some e -> unbound_checks ~name e cascade | None -> [])
  @ liveness_checks ~name ~roots ~expected_inputs cascade
  @ style_checks ~name cascade
