type index = string
type t = { tensor : string; indices : index list }

let v tensor indices =
  if List.length (List.sort_uniq compare indices) <> List.length indices then
    invalid_arg (Printf.sprintf "Tensor_ref.v: duplicate index in %s" tensor);
  { tensor; indices }

let scalar tensor = { tensor; indices = [] }
let rank t = List.length t.indices

let indices_of_many refs =
  List.concat_map (fun r -> r.indices) refs |> List.sort_uniq compare

let to_string t =
  match t.indices with
  | [] -> t.tensor
  | indices -> Printf.sprintf "%s[%s]" t.tensor (String.concat "," indices)

let pp ppf t = Fmt.string ppf (to_string t)
