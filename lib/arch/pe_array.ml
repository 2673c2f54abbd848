type shape = One_d of int | Two_d of int * int
type t = { name : string; shape : shape }

let one_d width =
  if width < 1 then invalid_arg "Pe_array.one_d: width < 1";
  { name = "1D"; shape = One_d width }

let two_d rows cols =
  if rows < 1 || cols < 1 then invalid_arg "Pe_array.two_d: non-positive dimension";
  { name = "2D"; shape = Two_d (rows, cols) }

let num_pes t = match t.shape with One_d w -> w | Two_d (r, c) -> r * c
let rows t = match t.shape with One_d w -> w | Two_d (r, _) -> r
let cols t = match t.shape with One_d _ -> 1 | Two_d (_, c) -> c

let pp ppf t =
  match t.shape with
  | One_d w -> Fmt.pf ppf "%s[%d]" t.name w
  | Two_d (r, c) -> Fmt.pf ppf "%s[%dx%d]" t.name r c
