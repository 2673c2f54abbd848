let quote field =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') field then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' field) ^ "\""
  else field

let csv ~columns ~rows =
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer (String.concat "," ("label" :: List.map quote columns));
  Buffer.add_char buffer '\n';
  List.iter
    (fun (label, values) ->
      Buffer.add_string buffer
        (String.concat "," (quote label :: List.map (Printf.sprintf "%.6g") values));
      Buffer.add_char buffer '\n')
    rows;
  Buffer.contents buffer

(* perfbench/ is the only user of this alias; the repository's own code
   names [Tf_json] directly. *)
module Json = Tf_json

let bar_chart ?(width = 48) ~title entries =
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer (title ^ "\n");
  let label_width =
    List.fold_left (fun acc (l, _) -> Int.max acc (String.length l)) 0 entries
  in
  let peak = List.fold_left (fun acc (_, v) -> Float.max acc v) 0. entries in
  List.iter
    (fun (label, value) ->
      let filled =
        if peak <= 0. then 0
        else Int.max 0 (Int.min width (int_of_float (Float.round (float_of_int width *. value /. peak))))
      in
      Buffer.add_string buffer
        (Printf.sprintf "%-*s |%s%s| %.2f\n" label_width label (String.make filled '#')
           (String.make (width - filled) ' ')
           value))
    entries;
  Buffer.contents buffer
