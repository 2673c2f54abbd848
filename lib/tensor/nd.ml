type t = { shape : int array; strides : int array; data : float array }

let compute_strides shape =
  let n = Array.length shape in
  let strides = Array.make n 1 in
  for i = n - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * shape.(i + 1)
  done;
  strides

let volume shape = Array.fold_left ( * ) 1 shape

let create shape fill =
  Array.iter (fun d -> if d < 0 then invalid_arg "Nd.create: negative dimension") shape;
  let shape = Array.copy shape in
  { shape; strides = compute_strides shape; data = Array.make (volume shape) fill }

let scalar x = { shape = [||]; strides = [||]; data = [| x |] }

let shape t = Array.copy t.shape
let rank t = Array.length t.shape
let numel t = Array.length t.data

let offset t idx =
  if Array.length idx <> Array.length t.shape then
    invalid_arg
      (Printf.sprintf "Nd: rank mismatch (index rank %d, tensor rank %d)" (Array.length idx)
         (Array.length t.shape));
  let off = ref 0 in
  for i = 0 to Array.length idx - 1 do
    if idx.(i) < 0 || idx.(i) >= t.shape.(i) then
      invalid_arg (Printf.sprintf "Nd: index %d out of bounds for axis %d" idx.(i) i);
    off := !off + (idx.(i) * t.strides.(i))
  done;
  !off

let get t idx = t.data.(offset t idx)
let data t = t.data
let set t idx x = t.data.(offset t idx) <- x
let copy t = { t with shape = Array.copy t.shape; data = Array.copy t.data }

let iter_indices shape f =
  let n = Array.length shape in
  if volume shape > 0 then begin
    let idx = Array.make n 0 in
    let rec next () =
      f idx;
      (* odometer increment *)
      let rec bump i =
        if i >= 0 then begin
          idx.(i) <- idx.(i) + 1;
          if idx.(i) = shape.(i) then begin
            idx.(i) <- 0;
            bump (i - 1)
          end
          else true
        end
        else false
      in
      if bump (n - 1) then next ()
    in
    next ()
  end

let init shape f =
  let t = create shape 0. in
  let i = ref 0 in
  iter_indices t.shape (fun idx ->
      t.data.(!i) <- f idx;
      incr i);
  t

let map f t = { t with shape = Array.copy t.shape; data = Array.map f t.data }

let same_shape a b = a.shape = b.shape

let map2 f a b =
  if not (same_shape a b) then invalid_arg "Nd.map2: shape mismatch";
  { a with shape = Array.copy a.shape; data = Array.map2 f a.data b.data }

let fold f acc t = Array.fold_left f acc t.data
let to_list t = Array.to_list t.data

let of_list shape l =
  if List.length l <> volume shape then invalid_arg "Nd.of_list: wrong element count";
  let shape = Array.copy shape in
  { shape; strides = compute_strides shape; data = Array.of_list l }

let random ?(lo = -1.) ?(hi = 1.) state shape =
  let t = create shape 0. in
  for i = 0 to Array.length t.data - 1 do
    t.data.(i) <- lo +. Random.State.float state (hi -. lo)
  done;
  t

let equal_approx ?(tol = 1e-9) a b =
  same_shape a b
  && Array.for_all2
       (fun x y -> Float.abs (x -. y) <= tol *. (1. +. Float.abs x +. Float.abs y))
       a.data b.data

let max_abs_diff a b =
  if not (same_shape a b) then invalid_arg "Nd.max_abs_diff: shape mismatch";
  let worst = ref 0. in
  Array.iteri (fun i x -> worst := Float.max !worst (Float.abs (x -. b.data.(i)))) a.data;
  !worst
