type activation = Relu | Gelu | Silu | Sigmoid

type t =
  | Add
  | Sub
  | Mul
  | Div
  | Max2
  | Exp
  | Exp_diff
  | Rsqrt
  | Copy
  | Activation of activation

type reduce = Sum | Max_reduce

let cost_factor = function
  | Add | Sub | Mul | Max2 | Copy -> 1.0
  | Div -> 2.0
  | Exp | Exp_diff | Rsqrt -> 2.0
  | Activation Relu -> 1.0
  | Activation (Gelu | Silu | Sigmoid) -> 2.0

let reduce_cost_factor = function Sum | Max_reduce -> 1.0

let gelu x =
  (* tanh approximation, adequate for validation purposes *)
  0.5 *. x *. (1. +. tanh (0.7978845608028654 *. (x +. (0.044715 *. x *. x *. x))))

let sigmoid x = 1. /. (1. +. exp (-.x))

let apply op args =
  match (op, args) with
  | Add, [ a; b ] -> a +. b
  | Sub, [ a; b ] -> a -. b
  | Mul, [ a; b ] -> a *. b
  | Div, [ a; b ] -> a /. b
  | Max2, [ a; b ] -> Float.max a b
  | Exp, [ a ] -> exp a
  | Exp_diff, [ a; b ] -> exp (a -. b)
  | Rsqrt, [ a ] -> 1. /. sqrt a
  | Copy, [ a ] -> a
  | Activation Relu, [ a ] -> Float.max 0. a
  | Activation Gelu, [ a ] -> gelu a
  | Activation Silu, [ a ] -> a *. sigmoid a
  | Activation Sigmoid, [ a ] -> sigmoid a
  | (Add | Sub | Mul | Div | Max2 | Exp | Exp_diff | Rsqrt | Copy | Activation _), _ ->
      invalid_arg "Scalar_op.apply: arity mismatch"

let reduce_apply = function Sum -> ( +. ) | Max_reduce -> Float.max
let reduce_identity = function Sum -> 0. | Max_reduce -> Float.neg_infinity

let activation_to_string = function
  | Relu -> "relu"
  | Gelu -> "gelu"
  | Silu -> "silu"
  | Sigmoid -> "sigmoid"

let to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Max2 -> "max2"
  | Exp -> "exp"
  | Exp_diff -> "exp_diff"
  | Rsqrt -> "rsqrt"
  | Copy -> "copy"
  | Activation a -> activation_to_string a

let all_ops =
  [ Add; Sub; Mul; Div; Max2; Exp; Exp_diff; Rsqrt; Copy ]
  @ List.map (fun a -> Activation a) [ Relu; Gelu; Silu; Sigmoid ]

let of_string s = List.find_opt (fun op -> to_string op = s) all_ops

let reduce_to_string = function Sum -> "sum" | Max_reduce -> "max"
let reduce_of_string = function "sum" -> Some Sum | "max" -> Some Max_reduce | _ -> None
