type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)

let escape s =
  let buffer = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | '\r' -> Buffer.add_string buffer "\\r"
      | '\t' -> Buffer.add_string buffer "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.contents buffer

(* %.17g round-trips every float but litters goldens with noise
   digits; %.12g survives the perturbations we care about (compiler,
   libm) while keeping diffs readable.  Golden comparisons re-parse
   and compare with a tolerance anyway. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then
    (* The digits %.0f prints, without Printf's cost: request ids and
       counts render on every response.  Only -0 needs its sign. *)
    if f = 0. && Float.sign_bit f then "-0" else string_of_int (int_of_float f)
  else Printf.sprintf "%.12g" f

let to_string t =
  let buffer = Buffer.create 1024 in
  let pad depth = String.make (depth * 2) ' ' in
  let rec emit depth = function
    | Null -> Buffer.add_string buffer "null"
    | Bool b -> Buffer.add_string buffer (string_of_bool b)
    | Int i -> Buffer.add_string buffer (string_of_int i)
    | Num f ->
        if Float.is_nan f || Float.abs f = Float.infinity then Buffer.add_string buffer "null"
        else Buffer.add_string buffer (number f)
    | Str s ->
        Buffer.add_char buffer '"';
        Buffer.add_string buffer (escape s);
        Buffer.add_char buffer '"'
    | List [] -> Buffer.add_string buffer "[]"
    | List items ->
        Buffer.add_string buffer "[\n";
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_string buffer ",\n";
            Buffer.add_string buffer (pad (depth + 1));
            emit (depth + 1) item)
          items;
        Buffer.add_char buffer '\n';
        Buffer.add_string buffer (pad depth);
        Buffer.add_char buffer ']'
    | Obj [] -> Buffer.add_string buffer "{}"
    | Obj fields ->
        Buffer.add_string buffer "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string buffer ",\n";
            Buffer.add_string buffer (pad (depth + 1));
            Buffer.add_char buffer '"';
            Buffer.add_string buffer (escape k);
            Buffer.add_string buffer "\": ";
            emit (depth + 1) v)
          fields;
        Buffer.add_char buffer '\n';
        Buffer.add_string buffer (pad depth);
        Buffer.add_char buffer '}'
  in
  emit 0 t;
  Buffer.add_char buffer '\n';
  Buffer.contents buffer

(* Single-line rendering for wire protocols: same escaping and number
   formatting as [to_string], no whitespace, no trailing newline.  A
   newline-delimited-JSON server frames messages by '\n', so the
   payload itself must never contain one (escaped newlines inside
   strings are fine — [escape] turns them into "\n" the two-character
   sequence). *)
let to_line t =
  let buffer = Buffer.create 256 in
  let rec emit = function
    | Null -> Buffer.add_string buffer "null"
    | Bool b -> Buffer.add_string buffer (string_of_bool b)
    | Int i -> Buffer.add_string buffer (string_of_int i)
    | Num f ->
        if Float.is_nan f || Float.abs f = Float.infinity then Buffer.add_string buffer "null"
        else Buffer.add_string buffer (number f)
    | Str s ->
        Buffer.add_char buffer '"';
        Buffer.add_string buffer (escape s);
        Buffer.add_char buffer '"'
    | List items ->
        Buffer.add_char buffer '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buffer ',';
            emit item)
          items;
        Buffer.add_char buffer ']'
    | Obj fields ->
        Buffer.add_char buffer '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buffer ',';
            Buffer.add_char buffer '"';
            Buffer.add_string buffer (escape k);
            Buffer.add_string buffer "\":";
            emit v)
          fields;
        Buffer.add_char buffer '}'
  in
  emit t;
  Buffer.contents buffer

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ())
  end

let write_file ~path contents =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let write ~path t = write_file ~path (to_string t)

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)

exception Bad_json of string

(* Wire-safety limit (a daemon parses attacker-adjacent bytes): the
   recursive-descent parser's stack frame count is proportional to
   nesting depth, so a line of a million '['s must raise [Bad_json]
   instead of [Stack_overflow] — an uncaught [Stack_overflow] in a
   server thread would kill the process.  Far above anything the repo's
   own schemas produce. *)
let max_depth = 512

let parse ?max_bytes (s : string) : t =
  (match max_bytes with
  | Some limit when String.length s > limit ->
      raise
        (Bad_json (Printf.sprintf "input too large (%d bytes, limit %d)" (String.length s) limit))
  | _ -> ());
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance () else fail (Printf.sprintf "expected %c" c)
  in
  let hex4 () =
    let code = ref 0 in
    for _ = 1 to 4 do
      match peek () with
      | Some ('0' .. '9' as c) ->
          code := (!code * 16) + (Char.code c - Char.code '0');
          advance ()
      | Some ('a' .. 'f' as c) ->
          code := (!code * 16) + (Char.code c - Char.code 'a' + 10);
          advance ()
      | Some ('A' .. 'F' as c) ->
          code := (!code * 16) + (Char.code c - Char.code 'A' + 10);
          advance ()
      | _ -> fail "bad unicode escape"
    done;
    !code
  in
  (* After the "\u": a BMP scalar, or a high surrogate that must be
     followed by an escaped low one (the pair is one code point above
     U+FFFF).  A lone surrogate has no UTF-8 encoding, so it is an
     error rather than three bytes of CESU-8. *)
  let unicode_escape () =
    let hi = hex4 () in
    if hi >= 0xDC00 && hi <= 0xDFFF then fail "lone low surrogate"
    else if hi >= 0xD800 && hi <= 0xDBFF then begin
      if !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u' then pos := !pos + 2
      else fail "lone high surrogate";
      let lo = hex4 () in
      if lo < 0xDC00 || lo > 0xDFFF then fail "lone high surrogate";
      Uchar.of_int (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
    end
    else Uchar.of_int hi
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some (('"' | '\\' | '/') as c) ->
              Buffer.add_char buf c;
              advance ()
          | Some 'b' -> Buffer.add_char buf '\b'; advance ()
          | Some 'f' -> Buffer.add_char buf '\012'; advance ()
          | Some 'n' -> Buffer.add_char buf '\n'; advance ()
          | Some 'r' -> Buffer.add_char buf '\r'; advance ()
          | Some 't' -> Buffer.add_char buf '\t'; advance ()
          | Some 'u' ->
              advance ();
              Buffer.add_utf_8_uchar buf (unicode_escape ())
          | _ -> fail "bad escape");
          loop ()
      | Some c when Char.code c < 0x20 -> fail "control char in string"
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          loop ()
    in
    loop ();
    Buffer.contents buf
  in
  (* RFC 8259 §6: [-] (0 | [1-9][0-9]* ) [. [0-9]+] [(e|E) [+|-] [0-9]+].
     No leading '+', no leading zeros, no bare '.' on either side. *)
  let digits () =
    let first = !pos in
    while (match peek () with Some '0' .. '9' -> true | _ -> false) do
      advance ()
    done;
    if !pos = first then fail "bad number"
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    (match peek () with
    | Some '0' ->
        advance ();
        (match peek () with Some '0' .. '9' -> fail "bad number (leading zero)" | _ -> ())
    | _ -> digits ());
    if peek () = Some '.' then (advance (); digits ());
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    float_of_string (String.sub s start (!pos - start))
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (
      pos := !pos + l;
      value)
    else fail (Printf.sprintf "expected %s" word)
  in
  let rec parse_value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (
          advance ();
          Obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected , or }"
          in
          Obj (members [])
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (
          advance ();
          List [])
        else
          let rec elements acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected , or ]"
          in
          List (elements [])
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> Num (parse_number ())
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
    | None -> fail "unexpected end of input"
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))

let member key = function
  | Obj fields -> (
      match List.assoc_opt key fields with
      | Some v -> v
      | None -> raise (Bad_json (Printf.sprintf "missing field %S" key)))
  | _ -> raise (Bad_json (Printf.sprintf "not an object (looking up %S)" key))

let find key = function Obj fields -> List.assoc_opt key fields | _ -> None
let get_list = function List l -> l | _ -> raise (Bad_json "not a list")
let get_string = function Str s -> s | _ -> raise (Bad_json "not a string")

let float_opt = function Num f -> Some f | Int i -> Some (float_of_int i) | _ -> None

let get_float v =
  match float_opt v with Some f -> f | None -> raise (Bad_json "not a number")

(* Integers above 2^53 are not exactly representable in the float the
   reader parsed them into, and past 2^62 [int_of_float] wraps; both are
   refused rather than answered with a different number. *)
let get_int = function
  | Int i -> i
  | Num f when Float.is_integer f && Float.abs f <= 0x1p53 -> int_of_float f
  | _ -> raise (Bad_json "not an integer")
