let ( let* ) = Result.bind

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let strip s = String.trim s

let error fmt = Printf.ksprintf (fun msg -> Error msg) fmt

(* "NAME[a,b,c]" or "NAME" -> tensor reference *)
let parse_ref s =
  let s = strip s in
  if s = "" then error "empty tensor reference"
  else
    match String.index_opt s '[' with
    | None ->
        if String.for_all is_ident_char s then Ok (Tensor_ref.scalar s)
        else error "bad tensor name %S" s
    | Some lb ->
        if not (String.length s > 0 && s.[String.length s - 1] = ']') then
          error "missing ']' in %S" s
        else
          let name = strip (String.sub s 0 lb) in
          let inner = String.sub s (lb + 1) (String.length s - lb - 2) in
          if name = "" || not (String.for_all is_ident_char name) then
            error "bad tensor name %S" name
          else
            let indices = List.map strip (String.split_on_char ',' inner) in
            if List.exists (fun i -> i = "" || not (String.for_all is_ident_char i)) indices then
              error "bad index list in %S" s
            else (
              try Ok (Tensor_ref.v name indices)
              with Invalid_argument msg -> Error msg)

(* Split a comma-separated argument list, respecting brackets. *)
let split_args s =
  let parts = ref [] and buf = Buffer.create 16 and depth = ref 0 in
  String.iter
    (fun c ->
      match c with
      | '[' ->
          incr depth;
          Buffer.add_char buf c
      | ']' ->
          decr depth;
          Buffer.add_char buf c
      | ',' when !depth = 0 ->
          parts := Buffer.contents buf :: !parts;
          Buffer.clear buf
      | c -> Buffer.add_char buf c)
    s;
  parts := Buffer.contents buf :: !parts;
  List.rev_map strip !parts

let parse_kind s =
  let s = strip s in
  if s = "contract" then Ok Einsum.Contraction
  else
    match String.index_opt s ':' with
    | None -> error "unknown kind %S (contract | map:<op> | reduce:<sum|max>)" s
    | Some colon -> (
        let head = String.sub s 0 colon in
        let tail = String.sub s (colon + 1) (String.length s - colon - 1) in
        match head with
        | "map" -> (
            match Scalar_op.of_string tail with
            | Some op -> Ok (Einsum.Map op)
            | None -> error "unknown scalar op %S" tail)
        | "reduce" -> (
            match Scalar_op.reduce_of_string tail with
            | Some op -> Ok (Einsum.Reduce op)
            | None -> error "unknown reduction %S (sum | max)" tail)
        | _ -> error "unknown kind %S" head)

let op_of_string line =
  let line = strip line in
  match String.index_opt line '=' with
  | None -> error "missing '=' in %S" line
  | Some eq -> (
      let lhs = String.sub line 0 eq in
      let rhs = strip (String.sub line (eq + 1) (String.length line - eq - 1)) in
      let* output = parse_ref lhs in
      match String.index_opt rhs '(' with
      | None -> error "missing '(' in %S" rhs
      | Some lp ->
          if not (String.length rhs > 0 && rhs.[String.length rhs - 1] = ')') then
            error "missing ')' in %S" rhs
          else
            let* kind = parse_kind (String.sub rhs 0 lp) in
            let args = String.sub rhs (lp + 1) (String.length rhs - lp - 2) in
            let* inputs =
              List.fold_left
                (fun acc arg ->
                  let* acc = acc in
                  let* r = parse_ref arg in
                  Ok (r :: acc))
                (Ok []) (split_args args)
            in
            let inputs = List.rev inputs in
            (try Ok (Einsum.v kind ~output ~inputs) with Invalid_argument msg -> Error msg))

let header_prefix = "cascade "

let cascade_of_string text =
  let lines = String.split_on_char '\n' text in
  let is_comment l = String.length l > 0 && l.[0] = '#' in
  let parsed_name = ref None in
  let* ops =
    List.fold_left
      (fun acc line ->
        let* acc = acc in
        let line = strip line in
        if line = "" || is_comment line then Ok acc
        else if
          String.length line > String.length header_prefix
          && String.sub line 0 (String.length header_prefix) = header_prefix
          && line.[String.length line - 1] = ':'
        then begin
          parsed_name :=
            Some
              (strip
                 (String.sub line (String.length header_prefix)
                    (String.length line - String.length header_prefix - 1)));
          Ok acc
        end
        else
          let* op = op_of_string line in
          Ok (op :: acc))
      (Ok []) lines
  in
  let ops = List.rev ops in
  if ops = [] then error "no operations"
  else
    try Ok (Cascade.v ?name:!parsed_name ops) with Invalid_argument msg -> Error msg

let op_to_string op = Fmt.str "%a" Einsum.pp op

let cascade_to_string cascade =
  Fmt.str "cascade %s:\n%s\n" (Cascade.name cascade)
    (String.concat "\n" (List.map op_to_string (Cascade.ops cascade)))
