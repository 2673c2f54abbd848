type dims = {
  b : int;
  d : int;
  p : int;
  m1 : int;
  m0 : int;
  h : int;
  e : int;
  f : int;
  s : int;
  p_row : int;
}

module type NUM = sig
  type t

  val of_int : int -> t
  val add : t -> t -> t
  val mul : t -> t -> t
  val max : t -> t -> t
end

(* The Table 2 formulas over an arbitrary numeric domain: the
   specification of the float API below, and the expression tree the
   range certifier (Tf_analysis.Range_cert) evaluates over its symbolic
   domain.  Operator nesting deliberately mirrors the original
   left-associated float expressions. *)
module Gen (N : NUM) = struct
  type gdims = {
    b : N.t;
    d : N.t;
    p : N.t;
    m1 : N.t;
    m0 : N.t;
    h : N.t;
    e : N.t;
    f : N.t;
    s : N.t;
    p_row : N.t;
  }

  let ( + ) = N.add
  let ( * ) = N.mul
  let i = N.of_int

  let qkv { b; d; p; m1; m0; h; e; _ } =
    (b * d * ((i 4 * p) + (i 3 * m1 * m0))) + (i 3 * d * h * e) + (i 2 * b * h * p)

  let mha { b; p; m1; m0; h; e; f; p_row; _ } =
    (b * h * e * (p + (i 2 * m1 * m0)))
    + (b * h * p * (i 2 + (i 2 * f)))
    + (i 4 * m0 * p_row)
    + (i 18 * p_row)

  let add_layernorm { b; p; h; f; p_row; _ } = (i 3 * b * h * f * p) + (i 4 * h * f * p_row)

  let ffn { b; p; h; f; s; p_row; _ } =
    (h * f * ((i 2 * b * p) + s)) + (s * (p + i 2)) + (i 2 * s * p_row)

  let worst dims = List.fold_left N.max (i 0) [ qkv dims; mha dims; add_layernorm dims; ffn dims ]

  (* Decode-step extension of the Table 2 MHA row: the resident K/V per
     pass is a slice of a DRAM-backed cache rather than a freshly
     produced tile, so the tile additionally holds one in-flight cache
     tile of each of K and V (double buffering the stream against the
     attention loop) plus the newly appended key/value position. *)
  let kv_cache_tile { b; m0; h; e; f; _ } = b * h * (e + f) * (m0 + i 1)

  let mha_decode dims = mha dims + kv_cache_tile dims

  let worst_decode dims =
    List.fold_left N.max (i 0) [ qkv dims; mha_decode dims; add_layernorm dims; ffn dims ]
end

(* [Gen] at [float], written out.  Each function performs [Gen]'s
   operations in [Gen]'s order on the same values, so it is bit-identical
   to [Gen] instantiated at [float] with [Float.max] (test_properties
   pins this).  Through the functor, which this compiler (no flambda)
   does not specialise, every [+] and [*] of TileSeek's feasibility
   check was a closure call on boxed floats; written out and inlined, a
   check allocates nothing.  The rows are sums of products of positive
   ints, finite and positive, where [fmax]'s comparison equals
   [Float.max] without its C call. *)
let fl = float_of_int
let[@inline] fmax (a : float) b = if b > a then b else a

let[@inline] qkv x =
  let b = fl x.b and d = fl x.d and p = fl x.p and m1 = fl x.m1 and m0 = fl x.m0 in
  let h = fl x.h and e = fl x.e in
  (b *. d *. ((4. *. p) +. (3. *. m1 *. m0))) +. (3. *. d *. h *. e) +. (2. *. b *. h *. p)

let[@inline] mha x =
  let b = fl x.b and p = fl x.p and m1 = fl x.m1 and m0 = fl x.m0 and h = fl x.h in
  let e = fl x.e and f = fl x.f and p_row = fl x.p_row in
  (b *. h *. e *. (p +. (2. *. m1 *. m0)))
  +. (b *. h *. p *. (2. +. (2. *. f)))
  +. (4. *. m0 *. p_row)
  +. (18. *. p_row)

let[@inline] add_layernorm x =
  let b = fl x.b and p = fl x.p and h = fl x.h and f = fl x.f and p_row = fl x.p_row in
  (3. *. b *. h *. f *. p) +. (4. *. h *. f *. p_row)

let[@inline] ffn x =
  let b = fl x.b and p = fl x.p and h = fl x.h and f = fl x.f and s = fl x.s in
  let p_row = fl x.p_row in
  (h *. f *. ((2. *. b *. p) +. s)) +. (s *. (p +. 2.)) +. (2. *. s *. p_row)

let[@inline] kv_cache_tile x =
  let b = fl x.b and m0 = fl x.m0 and h = fl x.h and e = fl x.e and f = fl x.f in
  b *. h *. (e +. f) *. (m0 +. 1.)

let[@inline] mha_decode x = mha x +. kv_cache_tile x
let[@inline] worst x = fmax (fmax (fmax (fmax 0. (qkv x)) (mha x)) (add_layernorm x)) (ffn x)

let[@inline] worst_decode x =
  fmax (fmax (fmax (fmax 0. (qkv x)) (mha_decode x)) (add_layernorm x)) (ffn x)

let fits ~buffer_elements dims = worst dims <= float_of_int buffer_elements
let fits_decode ~buffer_elements dims = worst_decode dims <= float_of_int buffer_elements

let of_workload ?kv_len (w : Tf_workloads.Workload.t) ~b ~d ~p ~m1 ~m0 ~s ~p_row =
  if b < 1 || d < 1 || p < 1 || m1 < 1 || m0 < 1 || s < 1 || p_row < 1 then
    invalid_arg "Buffer_req.of_workload: non-positive";
  let m = w.model in
  let check label tile total =
    if tile > total || total mod tile <> 0 then
      invalid_arg (Printf.sprintf "Buffer_req.of_workload: %s=%d must divide %d" label tile total)
  in
  check "b" b w.batch;
  check "d" d m.Tf_workloads.Model.d_model;
  check "m1*m0" (m1 * m0) (Option.value kv_len ~default:w.seq_len);
  check "s" s m.Tf_workloads.Model.ffn_hidden;
  {
    b;
    d;
    p;
    m1;
    m0;
    h = m.Tf_workloads.Model.heads;
    e = m.Tf_workloads.Model.head_dim;
    f = m.Tf_workloads.Model.head_dim;
    s;
    p_row;
  }

let pp ppf d =
  Fmt.pf ppf "B=%d P=%d M1=%d M0=%d P'=%d (D=%d H=%d E=%d F=%d S=%d)" d.b d.p d.m1 d.m0 d.p_row d.d
    d.h d.e d.f d.s
