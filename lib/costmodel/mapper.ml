open Tf_einsum

type stats = { enumerated : int; feasible : int }

(* (dram factor, buffer factor) splits of an extent: power-of-two
   divisors plus the trivial all-resident split. *)
let splits extent =
  let rec pow2 acc v = if v <= extent && extent mod v = 0 then pow2 (v :: acc) (2 * v) else acc in
  let divisors = pow2 [] 1 in
  let pairs = List.map (fun inner -> (extent / inner, inner)) divisors in
  if List.mem (1, extent) pairs then pairs else (1, extent) :: pairs

(* All permutations of a list (dimension counts are small). *)
let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y <> x) l in
          List.map (fun p -> x :: p) (permutations rest))
        l

let enumerate ?(max_candidates = 20000) extents op =
  let dims = Einsum.all_dims op in
  let dim_splits = List.map (fun d -> (d, splits (Extents.find extents d))) dims in
  (* Cartesian product of per-dimension splits. *)
  let assignments =
    List.fold_left
      (fun acc (d, options) ->
        List.concat_map (fun assignment -> List.map (fun s -> (d, s) :: assignment) options) acc)
      [ [] ] dim_splits
  in
  let orders = permutations dims in
  let results = ref [] and count = ref 0 in
  (try
     List.iter
       (fun assignment ->
         List.iter
           (fun order ->
             if !count >= max_candidates then raise Exit;
             let dram_loops =
               List.filter_map
                 (fun d ->
                   let outer, _ = List.assoc d assignment in
                   if outer > 1 then Some { Loopnest.index = d; extent = outer; level = Loopnest.Dram }
                   else None)
                 order
             in
             let buffer_loops =
               List.filter_map
                 (fun (d, (_, inner)) ->
                   if inner >= 1 then
                     Some { Loopnest.index = d; extent = inner; level = Loopnest.Buffer }
                   else None)
                 (List.rev assignment)
             in
             incr count;
             results := Loopnest.v ~extents op (dram_loops @ buffer_loops) :: !results)
           orders)
       assignments
   with Exit -> ());
  List.rev !results

let traffic_lower_bound extents op =
  let vol r = float_of_int (Extents.volume extents r) in
  vol op.Einsum.output +. List.fold_left (fun acc r -> acc +. vol r) 0. op.Einsum.inputs

let search arch extents op =
  let candidates = enumerate extents op in
  let best = ref None and feasible = ref 0 in
  List.iter
    (fun nest ->
      match Loopnest.validate arch nest with
      | Error _ -> ()
      | Ok () ->
          incr feasible;
          let traffic = Loopnest.dram_traffic nest in
          let occupancy = Loopnest.buffer_occupancy nest in
          let better =
            match !best with
            | None -> true
            | Some (_, t, o) -> traffic < t || (traffic = t && occupancy < o)
          in
          if better then best := Some (nest, traffic, occupancy))
    candidates;
  let stats = { enumerated = List.length candidates; feasible = !feasible } in
  match !best with
  | Some (nest, traffic, _) -> Ok (nest, traffic, stats)
  | None -> Error (Printf.sprintf "no feasible mapping among %d candidates" stats.enumerated)
