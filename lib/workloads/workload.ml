type t = { model : Model.t; seq_len : int; batch : int }

let v ?(batch = 64) model ~seq_len =
  if seq_len < 1 || batch < 1 then invalid_arg "Workload.v: non-positive size";
  { model; seq_len; batch }

let default_m0 seq_len =
  let rec grow m0 = if m0 * 2 <= 256 && seq_len mod (m0 * 2) = 0 then grow (m0 * 2) else m0 in
  if seq_len mod 2 = 0 then grow 2 else 1

let extents t =
  let m0 = default_m0 t.seq_len in
  let m = t.model in
  Tf_einsum.Extents.of_list
    [
      ("b", t.batch);
      ("d", m.Model.d_model);
      ("p", t.seq_len);
      ("m1", t.seq_len / m0);
      ("m0", m0);
      ("h", m.Model.heads);
      ("e", m.Model.head_dim);
      ("f", m.Model.head_dim);
      ("s", m.Model.ffn_hidden);
    ]

let seq_labels =
  [ ("1K", 1024); ("4K", 4096); ("16K", 16384); ("64K", 65536); ("256K", 262144); ("1M", 1048576) ]

let label_of_seq n =
  match List.find_opt (fun (_, v) -> v = n) seq_labels with
  | Some (l, _) -> l
  | None -> string_of_int n

let pp ppf t =
  Fmt.pf ppf "%a seq=%s batch=%d" Model.pp t.model (label_of_seq t.seq_len) t.batch
