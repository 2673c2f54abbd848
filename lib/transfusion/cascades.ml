open Tf_einsum
module Phase = Tf_costmodel.Phase

let r = Tensor_ref.v

let qkv () =
  Cascade.v ~name:"qkv"
    [
      Einsum.contraction (r "Q" [ "h"; "e"; "p" ]) [ r "INPUT" [ "d"; "p" ]; r "WQ" [ "d"; "h"; "e" ] ];
      Einsum.contraction
        (r "BK" [ "h"; "e"; "m0" ])
        [ r "INPUT_KV" [ "d"; "m0" ]; r "WK" [ "d"; "h"; "e" ] ];
      Einsum.contraction
        (r "BV" [ "h"; "f"; "m0" ])
        [ r "INPUT_KV" [ "d"; "m0" ]; r "WV" [ "d"; "h"; "f" ] ];
    ]

let mha () =
  Cascade.v ~name:"mha"
    [
      (* Eq. 12 *)
      Einsum.contraction (r "BQK" [ "h"; "m0"; "p" ]) [ r "Q" [ "h"; "e"; "p" ]; r "BK" [ "h"; "e"; "m0" ] ];
      (* Eq. 13 *)
      Einsum.reduce Scalar_op.Max_reduce (r "LM" [ "h"; "p" ]) (r "BQK" [ "h"; "m0"; "p" ]);
      (* Eq. 14 *)
      Einsum.map Scalar_op.Max2 (r "RM" [ "h"; "p" ]) [ r "RM_prev" [ "h"; "p" ]; r "LM" [ "h"; "p" ] ];
      (* Eq. 15 *)
      Einsum.map Scalar_op.Exp_diff
        (r "SLN" [ "h"; "m0"; "p" ])
        [ r "BQK" [ "h"; "m0"; "p" ]; r "RM" [ "h"; "p" ] ];
      (* Eq. 16 *)
      Einsum.reduce Scalar_op.Sum (r "SLD" [ "h"; "p" ]) (r "SLN" [ "h"; "m0"; "p" ]);
      (* Eq. 17 *)
      Einsum.contraction
        (r "SLNV" [ "h"; "f"; "p" ])
        [ r "SLN" [ "h"; "m0"; "p" ]; r "BV" [ "h"; "f"; "m0" ] ];
      (* Eq. 18 *)
      Einsum.map Scalar_op.Exp_diff (r "PRM" [ "h"; "p" ]) [ r "RM_prev" [ "h"; "p" ]; r "RM" [ "h"; "p" ] ];
      (* Eq. 19 *)
      Einsum.map Scalar_op.Mul (r "SPD" [ "h"; "p" ]) [ r "RD_prev" [ "h"; "p" ]; r "PRM" [ "h"; "p" ] ];
      (* Eq. 20 *)
      Einsum.map Scalar_op.Add (r "RD" [ "h"; "p" ]) [ r "SLD" [ "h"; "p" ]; r "SPD" [ "h"; "p" ] ];
      (* Eq. 21 *)
      Einsum.map Scalar_op.Mul
        (r "SPNV" [ "h"; "f"; "p" ])
        [ r "RNV_prev" [ "h"; "f"; "p" ]; r "PRM" [ "h"; "p" ] ];
      (* Eq. 22 *)
      Einsum.map Scalar_op.Add
        (r "RNV" [ "h"; "f"; "p" ])
        [ r "SLNV" [ "h"; "f"; "p" ]; r "SPNV" [ "h"; "f"; "p" ] ];
      (* Eq. 23 *)
      Einsum.map Scalar_op.Div (r "AV" [ "h"; "f"; "p" ]) [ r "RNV" [ "h"; "f"; "p" ]; r "RD" [ "h"; "p" ] ];
    ]

let add_layernorm () =
  Cascade.v ~name:"add_layernorm"
    [
      (* Eq. 28 *)
      Einsum.map Scalar_op.Add
        (r "IAV" [ "h"; "f"; "p" ])
        [ r "INP" [ "h"; "f"; "p" ]; r "AV" [ "h"; "f"; "p" ] ];
      (* Eq. 29 *)
      Einsum.reduce Scalar_op.Sum (r "SAV" [ "p" ]) (r "IAV" [ "h"; "f"; "p" ]);
      (* Eq. 30 *)
      Einsum.map Scalar_op.Mul (r "MAV" [ "p" ]) [ r "SAV" [ "p" ]; Tensor_ref.scalar "INV_HF" ];
      (* Eq. 31 *)
      Einsum.map Scalar_op.Sub (r "DAV" [ "h"; "f"; "p" ]) [ r "IAV" [ "h"; "f"; "p" ]; r "MAV" [ "p" ] ];
      (* Eq. 32 *)
      Einsum.map Scalar_op.Mul
        (r "QAV" [ "h"; "f"; "p" ])
        [ r "DAV" [ "h"; "f"; "p" ]; r "DAV" [ "h"; "f"; "p" ] ];
      (* Eq. 33 *)
      Einsum.reduce Scalar_op.Sum (r "SQAV" [ "p" ]) (r "QAV" [ "h"; "f"; "p" ]);
      (* Eq. 34 *)
      Einsum.map Scalar_op.Mul (r "MQAV" [ "p" ]) [ r "SQAV" [ "p" ]; Tensor_ref.scalar "INV_HF" ];
      (* Eq. 35 *)
      Einsum.map Scalar_op.Rsqrt (r "SR" [ "p" ]) [ r "MQAV" [ "p" ] ];
      (* Eq. 36 *)
      Einsum.map Scalar_op.Mul (r "NR" [ "h"; "f"; "p" ]) [ r "DAV" [ "h"; "f"; "p" ]; r "SR" [ "p" ] ];
    ]

let ffn activation =
  Cascade.v ~name:"ffn"
    [
      (* Eq. 37 *)
      Einsum.contraction (r "FFN1" [ "s"; "p" ]) [ r "NR" [ "h"; "f"; "p" ]; r "WF1" [ "h"; "f"; "s" ] ];
      Einsum.map Scalar_op.Add (r "FFN1B" [ "s"; "p" ]) [ r "FFN1" [ "s"; "p" ]; r "BF1" [ "s" ] ];
      (* Eq. 38 *)
      Einsum.map (Scalar_op.Activation activation) (r "AR" [ "s"; "p" ]) [ r "FFN1B" [ "s"; "p" ] ];
      (* Eq. 39 *)
      Einsum.contraction (r "FFN2" [ "h"; "f"; "p" ]) [ r "AR" [ "s"; "p" ]; r "WF2" [ "h"; "f"; "s" ] ];
      Einsum.map Scalar_op.Add
        (r "FFN2B" [ "h"; "f"; "p" ])
        [ r "FFN2" [ "h"; "f"; "p" ]; r "BF2" [ "h"; "f" ] ];
    ]

let modules ?(include_ffn = true) activation =
  [ (Phase.Qkv, qkv ()); (Phase.Mha, mha ()); (Phase.Layernorm, add_layernorm ()) ]
  @ if include_ffn then [ (Phase.Ffn, ffn activation) ] else []

let full_layer ?(include_ffn = true) activation =
  let name = if include_ffn then "transformer_layer" else "transformer_layer_noffn" in
  Cascade.concat ~name (List.map snd (modules ~include_ffn activation))

(* Op name -> module: no op name depends on the activation. *)
let module_table =
  List.concat_map
    (fun (m, c) -> List.map (fun (op : Einsum.t) -> (op.Einsum.name, m)) (Cascade.ops c))
    (modules Scalar_op.Gelu)
  |> List.to_seq |> Hashtbl.of_seq

let module_of (op : Einsum.t) =
  try Hashtbl.find module_table op.Einsum.name
  with Not_found -> invalid_arg ("Cascades.module_of: no module has an op " ^ op.Einsum.name)

(* The final normalisation AV runs once, on the last m1 iteration; every
   other MHA op is loop body. *)
let in_attention_loop (op : Einsum.t) = module_of op = Phase.Mha && op.Einsum.name <> "AV"
