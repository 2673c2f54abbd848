module Json = Tf_json

let schema = "transfusion.serve/1"

(* One framed request must fit a line; a megabyte of JSON is three
   orders of magnitude above any legitimate query, so reject early
   (also enforced byte-by-byte by the connection reader, which refuses
   to buffer more than this before seeing a newline). *)
let max_request_bytes = 1 lsl 20

exception Bad_request = Request.Bad_request

let fail = Request.fail

type request = { id : Json.t; op : string; body : Json.t }

(* The id is echoed back verbatim so clients can pipeline requests over
   one connection; only scalars are accepted (an object id has no
   canonical rendering worth promising). *)
let id_of body =
  match Json.find "id" body with
  | None -> Json.Null
  | Some (Json.List _ | Json.Obj _) -> fail "id must be a scalar"
  | Some id -> id

let parse_request line =
  let body =
    try Json.parse ~max_bytes:max_request_bytes line
    with Json.Bad_json msg -> fail "malformed request: %s" msg
  in
  (match body with Json.Obj _ -> () | _ -> fail "request must be a JSON object");
  let op =
    match Json.find "op" body with
    | Some (Json.Str op) -> op
    | Some _ -> fail "op must be a string"
    | None -> fail "missing field \"op\""
  in
  { id = id_of body; op; body }

(* Single-field readers over the request table's entries. *)

let field f body = Request.(of_json (Field (Const Fun.id, f))) body
let int_field = Request.int_field
let arch_field = field Request.arch
let model_field = field Request.model
let strategy_field body ~default = field { Request.strategy with default } body

(* Response framing.  The payload is spliced in verbatim — it is already
   a rendered line from the shared {!Api} builders (or the cache), and
   re-parsing it would forfeit the byte-identity the differential test
   pins.  [result] is the last field so tests can peel the payload back
   out of the response with plain string surgery. *)

(* The header fields are spliced by hand, with the bytes a
   [Json.Obj] of them would render: the schema and the booleans are
   constants, the op and id go through the shared writer. *)
let frame ~ok ~id ~op ~field body =
  let b = Buffer.create (String.length body + 96) in
  Buffer.add_string b "{\"schema\":\"";
  Buffer.add_string b schema;
  Buffer.add_string b (if ok then "\",\"ok\":true" else "\",\"ok\":false");
  (match op with
  | None -> ()
  | Some op ->
      Buffer.add_string b ",\"op\":";
      Json.to_buffer b (Json.Str op));
  (match id with
  | Json.Null -> ()
  | id ->
      Buffer.add_string b ",\"id\":";
      Json.to_buffer b id);
  Buffer.add_string b field;
  Buffer.add_string b body;
  Buffer.add_char b '}';
  Buffer.contents b

let ok_line ?(id = Json.Null) ~op payload =
  frame ~ok:true ~id ~op:(Some op) ~field:",\"result\":" payload

let error_line ?(id = Json.Null) ?op msg =
  frame ~ok:false ~id ~op ~field:",\"error\":" (Json.to_line (Json.Str msg))

let result_of_line line =
  let marker = ",\"result\":" in
  let mlen = String.length marker in
  let rec find i =
    if i + mlen > String.length line then None
    else if String.sub line i mlen = marker then Some (i + mlen)
    else find (i + 1)
  in
  match find 0 with
  | Some start -> Some (String.sub line start (String.length line - start - 1))
  | None -> None
