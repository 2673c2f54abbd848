type kind =
  | Contraction
  | Map of Scalar_op.t
  | Reduce of Scalar_op.reduce

type t = {
  name : string;
  output : Tensor_ref.t;
  inputs : Tensor_ref.t list;
  kind : kind;
}

let output_dims t = t.output.Tensor_ref.indices

let reduction_dims t =
  let out = t.output.Tensor_ref.indices in
  Tensor_ref.indices_of_many t.inputs |> List.filter (fun i -> not (List.mem i out))

let all_dims t =
  List.sort_uniq compare (output_dims t @ reduction_dims t)

let subset xs ys = List.for_all (fun x -> List.mem x ys) xs

let validate op =
  let out = op.output.Tensor_ref.indices in
  let fail msg = invalid_arg (Printf.sprintf "Einsum %s: %s" op.name msg) in
  (match op.kind with
  | Contraction ->
      if List.length op.inputs < 2 then fail "contraction needs at least two inputs";
      let input_indices = Tensor_ref.indices_of_many op.inputs in
      List.iter
        (fun i -> if not (List.mem i input_indices) then fail ("output index " ^ i ^ " missing from inputs"))
        out
  | Reduce _ -> (
      match op.inputs with
      | [ input ] ->
          if not (subset out input.Tensor_ref.indices) then
            fail "reduce output indices must be a subset of the input's";
          if reduction_dims op = [] then fail "reduce has no reduction index"
      | _ -> fail "reduce takes exactly one input")
  | Map scalar ->
      if op.inputs = [] then fail "map needs at least one input";
      List.iter
        (fun (input : Tensor_ref.t) ->
          if not (subset input.Tensor_ref.indices out) then
            fail ("map input " ^ input.tensor ^ " is not broadcastable to the output"))
        op.inputs;
      let arity_needed = List.length op.inputs in
      let expected =
        match scalar with
        | Scalar_op.Add | Sub | Mul | Div | Max2 | Exp_diff -> 2
        | Exp | Rsqrt | Copy | Activation _ -> 1
      in
      if arity_needed <> expected then
        fail
          (Printf.sprintf "map %s expects %d inputs, got %d" (Scalar_op.to_string scalar) expected
             arity_needed));
  op

let v ?name kind ~output ~inputs =
  let name = Option.value name ~default:output.Tensor_ref.tensor in
  validate { name; output; inputs; kind }

let contraction ?name output inputs = v ?name Contraction ~output ~inputs
let map ?name op output inputs = v ?name (Map op) ~output ~inputs
let reduce op output input = v (Reduce op) ~output ~inputs:[ input ]

let cost_factor t =
  match t.kind with
  | Contraction -> 1.0
  | Map op -> Scalar_op.cost_factor op
  | Reduce op -> Scalar_op.reduce_cost_factor op

let compute_load extents t =
  let out = float_of_int (Extents.product extents (output_dims t)) in
  let red = float_of_int (Extents.product extents (reduction_dims t)) in
  out *. red *. cost_factor t

let is_matrix_op t =
  match t.kind with Contraction -> reduction_dims t <> [] | Map _ | Reduce _ -> false

let input_tensors t = List.map (fun (r : Tensor_ref.t) -> r.tensor) t.inputs
let output_tensor t = t.output.Tensor_ref.tensor

let kind_to_string = function
  | Contraction -> "contract"
  | Map op -> "map:" ^ Scalar_op.to_string op
  | Reduce op -> "reduce:" ^ Scalar_op.reduce_to_string op

let pp ppf t =
  Fmt.pf ppf "%a = %s(%a)" Tensor_ref.pp t.output (kind_to_string t.kind)
    Fmt.(list ~sep:(any ", ") Tensor_ref.pp)
    t.inputs
