type t = { name : string; ops : Einsum.t array }

let name t = t.name
let ops t = Array.to_list t.ops
let length t = Array.length t.ops

let op t i =
  if i < 0 || i >= Array.length t.ops then
    invalid_arg (Printf.sprintf "Cascade.op: index %d out of range" i);
  t.ops.(i)

let validate name (ops : Einsum.t list) =
  let seen_names = Hashtbl.create 16 and producers = Hashtbl.create 16 in
  List.iteri
    (fun i (o : Einsum.t) ->
      if Hashtbl.mem seen_names o.name then
        invalid_arg (Printf.sprintf "Cascade %s: duplicate op name %s" name o.name);
      Hashtbl.add seen_names o.name ();
      let out = Einsum.output_tensor o in
      if Hashtbl.mem producers out then
        invalid_arg (Printf.sprintf "Cascade %s: tensor %s produced twice" name out);
      Hashtbl.add producers out i)
    ops;
  (* Reads must reference strictly earlier producers (or externals). *)
  List.iteri
    (fun i (o : Einsum.t) ->
      List.iter
        (fun input ->
          match Hashtbl.find_opt producers input with
          | Some j when j >= i ->
              invalid_arg
                (Printf.sprintf "Cascade %s: op %s reads %s before it is produced" name o.name input)
          | _ -> ())
        (Einsum.input_tensors o))
    ops

let v ?(name = "cascade") ops =
  validate name ops;
  { name; ops = Array.of_list ops }

let to_dag t =
  let producers = Hashtbl.create 16 in
  Array.iteri (fun i o -> Hashtbl.replace producers (Einsum.output_tensor o) i) t.ops;
  let g = ref Tf_dag.Dag.empty in
  Array.iteri (fun i o -> g := Tf_dag.Dag.add_node !g i o) t.ops;
  Array.iteri
    (fun j o ->
      List.iter
        (fun input ->
          match Hashtbl.find_opt producers input with
          | Some i when i <> j -> g := Tf_dag.Dag.add_edge !g i j
          | _ -> ())
        (Einsum.input_tensors o))
    t.ops;
  !g

let produced t = Array.to_list t.ops |> List.map Einsum.output_tensor

let external_inputs t =
  let produced_set = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace produced_set n ()) (produced t);
  Array.to_list t.ops
  |> List.concat_map Einsum.input_tensors
  |> List.filter (fun n -> not (Hashtbl.mem produced_set n))
  |> List.sort_uniq compare

let results t =
  let consumed = Hashtbl.create 16 in
  Array.iter
    (fun o -> List.iter (fun n -> Hashtbl.replace consumed n ()) (Einsum.input_tensors o))
    t.ops;
  produced t |> List.filter (fun n -> not (Hashtbl.mem consumed n)) |> List.sort_uniq compare

let indices t =
  Array.to_list t.ops
  |> List.concat_map (fun (o : Einsum.t) -> Tensor_ref.indices_of_many (o.output :: o.inputs))
  |> List.sort_uniq compare

let concat ?(name = "cascade") cascades =
  v ~name (List.concat_map ops cascades)

let check_extents extents t =
  match List.find_opt (fun i -> not (Extents.mem extents i)) (indices t) with
  | None -> Ok ()
  | Some i -> Error (Printf.sprintf "cascade %s: unbound index %s" t.name i)

let pp ppf t =
  Fmt.pf ppf "cascade %s:@." t.name;
  Array.iter (fun o -> Fmt.pf ppf "  %a@." Einsum.pp o) t.ops
