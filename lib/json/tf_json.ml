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

let plain c = c <> '"' && c <> '\\' && Char.code c >= 0x20

let add_escaped buffer s =
  if String.for_all plain s then Buffer.add_string buffer s
  else
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
      s

(* Most strings (names, ids, hex fingerprints) need no escape at all,
   so they come back as they are, without a copy. *)
let escape s =
  if String.for_all plain s then s
  else begin
    let buffer = Buffer.create (String.length s + 2) in
    add_escaped buffer s;
    Buffer.contents buffer
  end

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
        add_escaped buffer s;
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
            add_escaped buffer k;
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
let to_buffer buffer t =
  let rec emit = function
    | Null -> Buffer.add_string buffer "null"
    | Bool b -> Buffer.add_string buffer (string_of_bool b)
    | Int i -> Buffer.add_string buffer (string_of_int i)
    | Num f ->
        if Float.is_nan f || Float.abs f = Float.infinity then Buffer.add_string buffer "null"
        else Buffer.add_string buffer (number f)
    | Str s ->
        Buffer.add_char buffer '"';
        add_escaped buffer s;
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
            add_escaped buffer k;
            Buffer.add_string buffer "\":";
            emit v)
          fields;
        Buffer.add_char buffer '}'
  in
  emit t

let to_line t =
  let buffer = Buffer.create 256 in
  to_buffer buffer t;
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

(* Reader state: the text, its length and the offset of the next byte.
   The functions below are top-level rather than closures over a
   [parse] call, so reading a request allocates only the value it
   returns. *)
type reader = { s : string; n : int; mutable pos : int }

let fail r msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg r.pos))

(* The byte at the read position, or ['\000'] past the end.  A NUL byte
   in the text reads the same; where the two must differ (an error
   message), the caller checks [r.pos < r.n]. *)
let cur r = if r.pos < r.n then String.unsafe_get r.s r.pos else '\000'

let advance r = r.pos <- r.pos + 1

let rec skip_ws r =
  match cur r with
  | ' ' | '\t' | '\n' | '\r' ->
      advance r;
      skip_ws r
  | _ -> ()

let expect r c = if cur r = c then advance r else fail r (Printf.sprintf "expected %c" c)

let hex4 r =
  let code = ref 0 in
  for _ = 1 to 4 do
    let digit =
      match cur r with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | _ -> fail r "bad unicode escape"
    in
    code := (!code * 16) + digit;
    advance r
  done;
  !code

(* After the "\u": a BMP scalar, or a high surrogate that must be
   followed by an escaped low one (the pair is one code point above
   U+FFFF).  A lone surrogate has no UTF-8 encoding, so it is an
   error rather than three bytes of CESU-8. *)
let unicode_escape r =
  let hi = hex4 r in
  if hi >= 0xDC00 && hi <= 0xDFFF then fail r "lone low surrogate"
  else if hi >= 0xD800 && hi <= 0xDBFF then begin
    if r.pos + 1 < r.n && r.s.[r.pos] = '\\' && r.s.[r.pos + 1] = 'u' then r.pos <- r.pos + 2
    else fail r "lone high surrogate";
    let lo = hex4 r in
    if lo < 0xDC00 || lo > 0xDFFF then fail r "lone high surrogate";
    Uchar.of_int (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
  end
  else Uchar.of_int hi

(* The end of the run of bytes from [i] that a string literal holds as
   they are: no quote, no backslash, no control byte. *)
let rec plain_run r i =
  if i < r.n && plain (String.unsafe_get r.s i) then plain_run r (i + 1) else i

(* The character a two-byte escape stands for, at the escape letter. *)
let unescaped r buf c =
  Buffer.add_char buf c;
  advance r

(* After the opening quote: the body of a string literal.  A string
   with no escape is one [String.sub]; otherwise plain runs are copied
   whole between the escapes. *)
let string_body r =
  let start = r.pos in
  let stop = plain_run r start in
  if stop < r.n && String.unsafe_get r.s stop = '"' then begin
    r.pos <- stop + 1;
    String.sub r.s start (stop - start)
  end
  else begin
    let buf = Buffer.create (stop - start + 16) in
    let rec loop () =
      let run = r.pos in
      let stop = plain_run r run in
      if stop > run then Buffer.add_substring buf r.s run (stop - run);
      r.pos <- stop;
      if stop >= r.n then fail r "unterminated string"
      else
        match String.unsafe_get r.s stop with
        | '"' -> advance r
        | '\\' ->
            advance r;
            (match cur r with
            | ('"' | '\\' | '/') as c -> unescaped r buf c
            | 'b' -> unescaped r buf '\b'
            | 'f' -> unescaped r buf '\012'
            | 'n' -> unescaped r buf '\n'
            | 'r' -> unescaped r buf '\r'
            | 't' -> unescaped r buf '\t'
            | 'u' ->
                advance r;
                Buffer.add_utf_8_uchar buf (unicode_escape r)
            | _ -> fail r "bad escape");
            loop ()
        | _ -> fail r "control char in string"
    in
    r.pos <- start;
    loop ();
    Buffer.contents buf
  end

(* RFC 8259 §6: [-] (0 | [1-9][0-9]* ) [. [0-9]+] [(e|E) [+|-] [0-9]+].
   No leading '+', no leading zeros, no bare '.' on either side. *)
let digits r =
  let first = r.pos in
  while match cur r with '0' .. '9' -> true | _ -> false do
    advance r
  done;
  if r.pos = first then fail r "bad number"

let number r =
  let start = r.pos in
  let neg = cur r = '-' in
  if neg then advance r;
  (match cur r with
  | '0' -> (
      advance r;
      match cur r with '0' .. '9' -> fail r "bad number (leading zero)" | _ -> ())
  | _ -> digits r);
  let int_end = r.pos in
  if cur r = '.' then begin
    advance r;
    digits r
  end;
  (match cur r with
  | 'e' | 'E' ->
      advance r;
      (match cur r with '+' | '-' -> advance r | _ -> ());
      digits r
  | _ -> ());
  let first_digit = if neg then start + 1 else start in
  if r.pos = int_end && int_end - first_digit <= 15 then begin
    (* An integer of at most 15 digits is below 2^53, so summing its
       digits is exact and gives the float [float_of_string] would;
       request ids and sizes take this path. *)
    let v = ref 0 in
    for i = first_digit to int_end - 1 do
      v := (!v * 10) + (Char.code (String.unsafe_get r.s i) - Char.code '0')
    done;
    if neg then -.float_of_int !v else float_of_int !v
  end
  else float_of_string (String.sub r.s start (r.pos - start))

let literal r word value =
  let l = String.length word in
  let rec matches i = i = l || (r.s.[r.pos + i] = word.[i] && matches (i + 1)) in
  if r.pos + l <= r.n && matches 0 then begin
    r.pos <- r.pos + l;
    value
  end
  else fail r (Printf.sprintf "expected %s" word)

let rec value r depth =
  if depth > max_depth then fail r "nesting too deep";
  skip_ws r;
  match cur r with
  | '"' ->
      advance r;
      Str (string_body r)
  | '{' ->
      advance r;
      skip_ws r;
      if cur r = '}' then begin
        advance r;
        Obj []
      end
      else members r depth []
  | '[' ->
      advance r;
      skip_ws r;
      if cur r = ']' then begin
        advance r;
        List []
      end
      else elements r depth []
  | 't' -> literal r "true" (Bool true)
  | 'f' -> literal r "false" (Bool false)
  | 'n' -> literal r "null" Null
  | '-' | '0' .. '9' -> Num (number r)
  | c -> if r.pos < r.n then fail r (Printf.sprintf "unexpected %C" c) else fail r "unexpected end of input"

and members r depth acc =
  skip_ws r;
  expect r '"';
  let k = string_body r in
  skip_ws r;
  expect r ':';
  let acc = (k, value r (depth + 1)) :: acc in
  skip_ws r;
  match cur r with
  | ',' ->
      advance r;
      members r depth acc
  | '}' ->
      advance r;
      Obj (List.rev acc)
  | _ -> fail r "expected , or }"

and elements r depth acc =
  let acc = value r (depth + 1) :: acc in
  skip_ws r;
  match cur r with
  | ',' ->
      advance r;
      elements r depth acc
  | ']' ->
      advance r;
      List (List.rev acc)
  | _ -> fail r "expected , or ]"

let parse ?max_bytes (s : string) : t =
  (match max_bytes with
  | Some limit when String.length s > limit ->
      raise
        (Bad_json (Printf.sprintf "input too large (%d bytes, limit %d)" (String.length s) limit))
  | _ -> ());
  let r = { s; n = String.length s; pos = 0 } in
  let v = value r 0 in
  skip_ws r;
  if r.pos <> r.n then fail r "trailing garbage";
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
let get_bool = function Bool b -> b | _ -> raise (Bad_json "not a boolean")

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
