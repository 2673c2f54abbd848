type severity = Error | Warning

type location = { context : string option; op : string option; node : int option }

type t = { code : string; severity : severity; location : location; message : string }

let v severity ?context ?op ?node ~code message =
  { code; severity; location = { context; op; node }; message }

let error = v Error
let warning = v Warning

let is_error d = d.severity = Error
let errors ds = List.filter is_error ds
let warnings ds = List.filter (fun d -> not (is_error d)) ds
let has_errors ds = List.exists is_error ds

let by_code code ds = List.filter (fun d -> d.code = code) ds
let codes ds = List.map (fun d -> d.code) ds |> List.sort_uniq compare

let summary ds =
  let e = List.length (errors ds) and w = List.length (warnings ds) in
  let plural n = if n = 1 then "" else "s" in
  if e = 0 && w = 0 then "clean"
  else if w = 0 then Printf.sprintf "%d error%s" e (plural e)
  else if e = 0 then Printf.sprintf "%d warning%s" w (plural w)
  else Printf.sprintf "%d error%s, %d warning%s" e (plural e) w (plural w)

let render d =
  let where =
    List.filter_map Fun.id
      [
        Option.map (Printf.sprintf "in %s") d.location.context;
        Option.map (Printf.sprintf "op %s") d.location.op;
        Option.map (Printf.sprintf "node %d") d.location.node;
      ]
  in
  let where = match where with [] -> "" | l -> " " ^ String.concat ", " l in
  Printf.sprintf "%s[%s]%s: %s"
    (match d.severity with Error -> "error" | Warning -> "warning")
    d.code where d.message

let pp ppf d = Fmt.string ppf (render d)

let pp_list ppf ds =
  List.iter (fun d -> Fmt.pf ppf "%a@." pp d) (errors ds @ warnings ds);
  Fmt.pf ppf "%s@." (summary ds)
