(* Golden comparison helpers over parsed {!Tf_json} documents: equality
   with a relative tolerance on numbers, and the first differing path
   for a readable failure message. *)

open Tf_json

(* Structural equality with a relative tolerance on numbers — the golden
   comparison: field order matters (our emitter is deterministic),
   numeric noise does not. *)
let rec equal_approx ?(tol = 1e-9) a b =
  match (a, b) with
  | Num x, Num y ->
      x = y
      || Float.abs (x -. y) <= tol *. Float.max 1. (Float.max (Float.abs x) (Float.abs y))
  | List xs, List ys ->
      List.length xs = List.length ys && List.for_all2 (equal_approx ~tol) xs ys
  | Obj xs, Obj ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal_approx ~tol v1 v2)
           xs ys
  | _ -> a = b

(* First differing path between two documents, for readable golden-test
   failures ("points[3].ttft_s: 0.1 vs 0.2"). *)
let rec first_diff ?(tol = 1e-9) path a b =
  let render = function
    | List l -> Printf.sprintf "<list of %d>" (List.length l)
    | Obj o -> Printf.sprintf "<object of %d>" (List.length o)
    | v -> to_line v
  in
  match (a, b) with
  | List xs, List ys when List.length xs = List.length ys ->
      List.concat (List.mapi (fun i (x, y) -> first_diff ~tol (Printf.sprintf "%s[%d]" path i) x y)
          (List.combine xs ys))
      |> fun diffs -> (match diffs with [] -> [] | d :: _ -> [ d ])
  | Obj xs, Obj ys
    when List.length xs = List.length ys
         && List.for_all2 (fun (k1, _) (k2, _) -> String.equal k1 k2) xs ys ->
      List.concat
        (List.map2 (fun (k, x) (_, y) -> first_diff ~tol (Printf.sprintf "%s.%s" path k) x y) xs ys)
      |> fun diffs -> (match diffs with [] -> [] | d :: _ -> [ d ])
  | _ ->
      if equal_approx ~tol a b then []
      else [ Printf.sprintf "%s: %s vs %s" path (render a) (render b) ]

(* [Tf_json.escape]'s per-byte loop as it stood before the writer
   learnt to return strings that need no escape unchanged: the test
   suite pins the writer to it on every byte value. *)
let escape_reference s =
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
