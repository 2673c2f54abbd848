let dims2 t =
  match Nd.shape t with
  | [| r; c |] -> (r, c)
  | _ -> invalid_arg "Ops: expected a 2-D tensor"

let matmul a b =
  let m, k = dims2 a and k', n = dims2 b in
  if k <> k' then invalid_arg (Printf.sprintf "Ops.matmul: inner dims %d vs %d" k k');
  Nd.init [| m; n |] (fun idx ->
      let i = idx.(0) and j = idx.(1) in
      let acc = ref 0. in
      for l = 0 to k - 1 do
        acc := !acc +. (Nd.get a [| i; l |] *. Nd.get b [| l; j |])
      done;
      !acc)

let transpose a =
  let m, n = dims2 a in
  Nd.init [| n; m |] (fun idx -> Nd.get a [| idx.(1); idx.(0) |])

let add = Nd.map2 ( +. )
let scale k = Nd.map (fun x -> k *. x)

let add_row_bias m bias =
  let _, cols = dims2 m in
  (match Nd.shape bias with
  | [| n |] when n = cols -> ()
  | _ -> invalid_arg "Ops.add_row_bias: bias length mismatch");
  Nd.init (Nd.shape m) (fun idx -> Nd.get m idx +. Nd.get bias [| idx.(1) |])

let softmax_rows m =
  let rows, cols = dims2 m in
  let out = Nd.create [| rows; cols |] 0. in
  for i = 0 to rows - 1 do
    let row_max = ref Float.neg_infinity in
    for j = 0 to cols - 1 do
      row_max := Float.max !row_max (Nd.get m [| i; j |])
    done;
    let denom = ref 0. in
    for j = 0 to cols - 1 do
      let e = exp (Nd.get m [| i; j |] -. !row_max) in
      Nd.set out [| i; j |] e;
      denom := !denom +. e
    done;
    for j = 0 to cols - 1 do
      Nd.set out [| i; j |] (Nd.get out [| i; j |] /. !denom)
    done
  done;
  out

let mean_rows m =
  let rows, cols = dims2 m in
  Nd.init [| rows |] (fun idx ->
      let acc = ref 0. in
      for j = 0 to cols - 1 do
        acc := !acc +. Nd.get m [| idx.(0); j |]
      done;
      !acc /. float_of_int cols)

let variance_rows m =
  let rows, cols = dims2 m in
  let mu = mean_rows m in
  Nd.init [| rows |] (fun idx ->
      let i = idx.(0) in
      let acc = ref 0. in
      for j = 0 to cols - 1 do
        let d = Nd.get m [| i; j |] -. Nd.get mu [| i |] in
        acc := !acc +. (d *. d)
      done;
      !acc /. float_of_int cols)

let layernorm_rows m =
  let mu = mean_rows m and var = variance_rows m in
  Nd.init (Nd.shape m) (fun idx ->
      let i = idx.(0) in
      (Nd.get m idx -. Nd.get mu [| i |]) /. sqrt (Nd.get var [| i |]))

let activation act = Nd.map (fun x -> Tf_einsum.Scalar_op.apply (Activation act) [ x ])
