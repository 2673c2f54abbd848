type t = { model : Model.t; prompt : int; gen : int; batch : int }

let v ?(batch = 16) ?(gen = 512) model ~prompt =
  if prompt < 1 || gen < 1 || batch < 1 then invalid_arg "Generation.v: non-positive size";
  { model; prompt; gen; batch }

let prefill_workload t = Workload.v ~batch:t.batch t.model ~seq_len:t.prompt
let decode_workload t = Workload.v ~batch:t.batch t.model ~seq_len:1
let kv_first t = t.prompt
let kv_last t = t.prompt + t.gen

let label t =
  Printf.sprintf "%s+%s" (Workload.label_of_seq t.prompt) (Workload.label_of_seq t.gen)

let sweep model = List.map (fun (_, prompt) -> v model ~prompt) Workload.seq_labels

