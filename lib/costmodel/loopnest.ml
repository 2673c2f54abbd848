open Tf_einsum

type level = Dram | Buffer | Spatial

type loop = { index : Tensor_ref.index; extent : int; level : level }

type t = { op : Einsum.t; nest : loop list (* outermost first *) }

let level_rank = function Dram -> 0 | Buffer -> 1 | Spatial -> 2

let v ?extents op nest =
  List.iter
    (fun l ->
      if l.extent < 1 then
        invalid_arg (Printf.sprintf "Loopnest.v: non-positive extent for %s" l.index))
    nest;
  (* Levels must be ordered outer-to-inner: Dram, then Buffer, then
     Spatial. *)
  let rec check_order = function
    | a :: (b :: _ as rest) ->
        if level_rank a.level > level_rank b.level then
          invalid_arg "Loopnest.v: levels must be ordered Dram, Buffer, Spatial outer to inner";
        check_order rest
    | _ -> ()
  in
  check_order nest;
  let dims = Einsum.all_dims op in
  List.iter
    (fun l ->
      if not (List.mem l.index dims) then
        invalid_arg (Printf.sprintf "Loopnest.v: %s is not a dimension of %s" l.index op.Einsum.name))
    nest;
  (* When full extents are supplied, every dimension must be fully
     covered by its loop factors. *)
  (match extents with
  | None -> ()
  | Some extents ->
      let coverage index =
        List.fold_left (fun acc l -> if l.index = index then acc * l.extent else acc) 1 nest
      in
      List.iter
        (fun index ->
          let full = Extents.find extents index in
          if coverage index <> full then
            invalid_arg
              (Printf.sprintf "Loopnest.v: dimension %s covered %d of %d" index (coverage index)
                 full))
        dims);
  { op; nest }

let loops t = t.nest

let relevant (tensor : Tensor_ref.t) index = List.mem index tensor.Tensor_ref.indices

let footprint t ~tensor ~below =
  let boundary = level_rank below in
  List.fold_left
    (fun acc l ->
      if level_rank l.level >= boundary && relevant tensor l.index then
        acc *. float_of_int l.extent
      else acc)
    1. t.nest

(* The refetch factor of a tensor across the loops outer than [into]:
   walking upward from the boundary, the contiguous run of loops whose
   index the tensor does not use reuses the resident tile; the first
   relevant loop and everything above it multiply. *)
let refetch_factor t ~tensor ~into =
  let boundary = level_rank into in
  let above = List.filter (fun l -> level_rank l.level < boundary) t.nest in
  (* [above] is outermost-first; walk from the innermost upward. *)
  let rec walk = function
    | [] -> 1.
    | l :: outer ->
        (* [l] is the innermost remaining loop. *)
        if relevant tensor l.index then
          float_of_int l.extent
          *. List.fold_left (fun acc o -> acc *. float_of_int o.extent) 1. outer
        else walk outer
  in
  walk (List.rev above)

let reads t ~tensor ~into = footprint t ~tensor ~below:into *. refetch_factor t ~tensor ~into

let writes t ~into =
  footprint t ~tensor:t.op.Einsum.output ~below:into
  *. refetch_factor t ~tensor:t.op.Einsum.output ~into

let distinct_output_tiles t ~into =
  let boundary = level_rank into in
  let out = t.op.Einsum.output in
  footprint t ~tensor:out ~below:into
  *. List.fold_left
       (fun acc l ->
         if level_rank l.level < boundary && relevant out l.index then
           acc *. float_of_int l.extent
         else acc)
       1. t.nest

let dram_traffic t =
  let input_reads =
    List.fold_left (fun acc tensor -> acc +. reads t ~tensor ~into:Buffer) 0. t.op.Einsum.inputs
  in
  (* Output spills: every refetched tile is written back; refetches beyond
     the distinct tiles are read-modify-write passes that also read the
     partial back in. *)
  let spills = writes t ~into:Buffer in
  let distinct = distinct_output_tiles t ~into:Buffer in
  input_reads +. spills +. Float.max 0. (spills -. distinct)

let buffer_occupancy t =
  List.fold_left
    (fun acc tensor -> acc +. footprint t ~tensor ~below:Buffer)
    0.
    (t.op.Einsum.output :: t.op.Einsum.inputs)

let spatial_lanes t =
  List.fold_left (fun acc l -> if l.level = Spatial then acc * l.extent else acc) 1 t.nest

let validate (arch : Tf_arch.Arch.t) t =
  let occupancy = buffer_occupancy t in
  let capacity = float_of_int (Tf_arch.Arch.buffer_elements arch) in
  if occupancy > capacity then
    Error
      (Printf.sprintf "buffer occupancy %.0f exceeds capacity %.0f elements" occupancy capacity)
  else
    let lanes = spatial_lanes t in
    let pes = Tf_arch.Pe_array.num_pes arch.Tf_arch.Arch.pe_2d in
    if lanes > pes then Error (Printf.sprintf "spatial unroll %d exceeds %d PEs" lanes pes)
    else Ok ()
