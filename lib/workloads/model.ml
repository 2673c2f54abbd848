type t = {
  name : string;
  d_model : int;
  heads : int;
  head_dim : int;
  ffn_hidden : int;
  layers : int;
  activation : Tf_einsum.Scalar_op.activation;
}

let v ~name ~d_model ~heads ~head_dim ~ffn_hidden ~layers ~activation =
  if d_model < 1 || heads < 1 || head_dim < 1 || ffn_hidden < 1 || layers < 1 then
    invalid_arg "Model.v: non-positive dimension";
  if d_model <> heads * head_dim then
    invalid_arg
      (Printf.sprintf "Model.v %s: d_model (%d) must equal heads*head_dim (%d*%d)" name d_model
         heads head_dim);
  { name; d_model; heads; head_dim; ffn_hidden; layers; activation }

let pp ppf t =
  Fmt.pf ppf "%s(D=%d H=%d E=%d S=%d L=%d)" t.name t.d_model t.heads t.head_dim t.ffn_hidden
    t.layers
