type var = N | K

type expr =
  | Const of float
  | Var of var
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * float
  | Max of expr * expr

type grid = { g_lo : int; g_hi : int; g_step : int }

let grid ~lo ~hi ~step =
  if lo < 1 || step < 1 || hi < lo then
    invalid_arg (Printf.sprintf "Symexpr.grid: bad range %d:%d:%d" lo hi step);
  { g_lo = lo; g_hi = lo + ((hi - lo) / step * step); g_step = step }

let grid_mem g n = n >= g.g_lo && n <= g.g_hi && (n - g.g_lo) mod g.g_step = 0

type box = { n : grid; k : grid option }
type point = { pn : int; pk : int option }
type shape = Affine of { c0 : float; cn : float; ck : float } | Mono | Opaque

(* [cvals] caches the expression's exact value at each box corner (in
   {!corners} order).  Concrete evaluation is compositional, so every
   constructor derives its corner values pointwise from its operands' in
   O(corners) — crucial for the schedule replay, whose timeline
   expressions are DAGs with massive sharing: re-walking [expr] (a tree
   unfolding) to evaluate a corner would be exponential. *)
type t = { expr : expr; shape : shape; lo : float; hi : float; cvals : float array }

let rec eval ~n ?k e =
  let r e = eval ~n ?k e in
  match e with
  | Const c -> c
  | Var N -> n
  | Var K -> (
      match k with Some k -> k | None -> invalid_arg "Symexpr.eval: expression mentions k")
  | Add (a, b) -> r a +. r b
  | Sub (a, b) -> r a -. r b
  | Mul (a, b) -> r a *. r b
  | Div (a, c) -> r a /. c
  | Max (a, b) -> Float.max (r a) (r b)

(* The corners of the box, as witness points.  Box corners are grid
   points by construction ([grid] normalises [hi] onto the grid), so an
   extremal corner is always a certifiable witness. *)
let corners box =
  match box.k with
  | None -> [ { pn = box.n.g_lo; pk = None }; { pn = box.n.g_hi; pk = None } ]
  | Some k ->
      [
        { pn = box.n.g_lo; pk = Some k.g_lo };
        { pn = box.n.g_lo; pk = Some k.g_hi };
        { pn = box.n.g_hi; pk = Some k.g_lo };
        { pn = box.n.g_hi; pk = Some k.g_hi };
      ]

let eval_at p e = eval ~n:(float_of_int p.pn) ?k:(Option.map float_of_int p.pk) e

(* A shape that guarantees the value is nondecreasing in every variable. *)
let mono_like = function
  | Mono -> true
  | Affine { cn; ck; _ } -> cn >= 0. && ck >= 0.
  | Opaque -> false

let make expr shape ~cvals ~fallback =
  match shape with
  | Affine _ | Mono ->
      (* Exact shapes attain their extremes at box corners. *)
      let lo = Array.fold_left Float.min Float.infinity cvals in
      let hi = Array.fold_left Float.max Float.neg_infinity cvals in
      { expr; shape; lo; hi; cvals }
  | Opaque ->
      let lo, hi = fallback () in
      { expr; shape = Opaque; lo; hi; cvals }

let const box c =
  let cvals = Array.make (List.length (corners box)) c in
  make (Const c) (Affine { c0 = c; cn = 0.; ck = 0. }) ~cvals ~fallback:(fun () -> (c, c))

let int_ box i = const box (float_of_int i)

let var box v =
  (match (v, box.k) with
  | K, None -> invalid_arg "Symexpr.var: box has no k range"
  | _ -> ());
  let shape =
    match v with
    | N -> Affine { c0 = 0.; cn = 1.; ck = 0. }
    | K -> Affine { c0 = 0.; cn = 0.; ck = 1. }
  in
  let cvals = Array.of_list (List.map (fun p -> eval_at p (Var v)) (corners box)) in
  make (Var v) shape ~cvals ~fallback:(fun () -> assert false)

let is_const = function Affine { cn = 0.; ck = 0.; _ } -> true | _ -> false
let map2_cvals f a b = Array.map2 f a.cvals b.cvals

let add _box a b =
  let shape =
    match (a.shape, b.shape) with
    | Affine x, Affine y -> Affine { c0 = x.c0 +. y.c0; cn = x.cn +. y.cn; ck = x.ck +. y.ck }
    | sa, sb when mono_like sa && mono_like sb -> Mono
    | _ -> Opaque
  in
  make (Add (a.expr, b.expr)) shape ~cvals:(map2_cvals ( +. ) a b) ~fallback:(fun () ->
      (a.lo +. b.lo, a.hi +. b.hi))

let mul _box a b =
  let shape =
    match (a.shape, b.shape) with
    | Affine { c0 = c; _ }, Affine y when is_const a.shape ->
        Affine { c0 = c *. y.c0; cn = c *. y.cn; ck = c *. y.ck }
    | Affine x, Affine { c0 = c; _ } when is_const b.shape ->
        Affine { c0 = x.c0 *. c; cn = x.cn *. c; ck = x.ck *. c }
    | sa, sb when mono_like sa && mono_like sb && a.lo >= 0. && b.lo >= 0. -> Mono
    | _ -> Opaque
  in
  make (Mul (a.expr, b.expr)) shape ~cvals:(map2_cvals ( *. ) a b) ~fallback:(fun () ->
      let ps = [ a.lo *. b.lo; a.lo *. b.hi; a.hi *. b.lo; a.hi *. b.hi ] in
      (List.fold_left Float.min Float.infinity ps, List.fold_left Float.max Float.neg_infinity ps))

let div box a c =
  if not (c > 0.) then invalid_arg "Symexpr.div: non-positive divisor";
  match a.expr with
  | Const x -> const box (x /. c)
  | _ ->
      let shape =
        match a.shape with
        | Affine { c0; cn; ck } -> Affine { c0 = c0 /. c; cn = cn /. c; ck = ck /. c }
        | Mono -> Mono
        | Opaque -> Opaque
      in
      make (Div (a.expr, c)) shape
        ~cvals:(Array.map (fun v -> v /. c) a.cvals)
        ~fallback:(fun () -> (a.lo /. c, a.hi /. c))

(* max keeps an exact shape when one side dominates the other at
   every corner: the difference of two affine forms is affine, so
   corner dominance extends to the whole box. *)
let dominates a b =
  match (a.shape, b.shape) with
  | Affine _, Affine _ -> Array.for_all2 (fun x y -> x >= y) a.cvals b.cvals
  | _ -> false

let max_ _box a b =
  let shape =
    if dominates a b then a.shape
    else if dominates b a then b.shape
    else if mono_like a.shape && mono_like b.shape then Mono
    else Opaque
  in
  make (Max (a.expr, b.expr)) shape ~cvals:(map2_cvals Float.max a b) ~fallback:(fun () ->
      (Float.max a.lo b.lo, Float.max a.hi b.hi))

let corner_values box t = List.map2 (fun p v -> (p, v)) (corners box) (Array.to_list t.cvals)

let extremal ~keep box t =
  match corner_values box t with
  | [] -> assert false
  | first :: rest ->
      List.fold_left (fun (bp, bv) (p, v) -> if keep bv v then (bp, bv) else (p, v)) first rest

let sup box t =
  let p, v = extremal ~keep:(fun best v -> best >= v) box t in
  match t.shape with
  | Affine _ | Mono -> (v, p, true)
  | Opaque -> (t.hi, p, t.hi = v)

let inf box t =
  let p, v = extremal ~keep:(fun best v -> best <= v) box t in
  match t.shape with
  | Affine _ | Mono -> (v, p, true)
  | Opaque -> (t.lo, p, t.lo = v)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

(* Exact round-trip: integers verbatim (every quantity in the pipeline
   is an integer-valued float well below 2^53), other floats at 17
   significant digits. *)
let num_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec expr_to_json = function
  | Const c -> num_to_string c
  | Var N -> "\"n\""
  | Var K -> "\"k\""
  | Add (a, b) -> Printf.sprintf "[\"+\",%s,%s]" (expr_to_json a) (expr_to_json b)
  | Sub (a, b) -> Printf.sprintf "[\"-\",%s,%s]" (expr_to_json a) (expr_to_json b)
  | Mul (a, b) -> Printf.sprintf "[\"*\",%s,%s]" (expr_to_json a) (expr_to_json b)
  | Div (a, c) -> Printf.sprintf "[\"/\",%s,%s]" (expr_to_json a) (num_to_string c)
  | Max (a, b) -> Printf.sprintf "[\"max\",%s,%s]" (expr_to_json a) (expr_to_json b)
