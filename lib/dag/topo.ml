let sort g =
  let indeg = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace indeg id (Dag.in_degree g id)) (Dag.nodes g);
  (* A sorted-set frontier gives the deterministic smallest-id-first order. *)
  let module Iset = Set.Make (Int) in
  let frontier = ref Iset.empty in
  Hashtbl.iter (fun id d -> if d = 0 then frontier := Iset.add id !frontier) indeg;
  let rec loop acc =
    match Iset.min_elt_opt !frontier with
    | None -> List.rev acc
    | Some id ->
        frontier := Iset.remove id !frontier;
        List.iter
          (fun v ->
            let d = Hashtbl.find indeg v - 1 in
            Hashtbl.replace indeg v d;
            if d = 0 then frontier := Iset.add v !frontier)
          (Dag.succs g id);
        loop (id :: acc)
  in
  let order = loop [] in
  if List.length order <> Dag.node_count g then invalid_arg "Topo.sort: graph has a cycle";
  order

let is_valid g order =
  List.length order = Dag.node_count g
  && List.for_all (Dag.mem g) order
  && List.length (List.sort_uniq compare order) = List.length order
  &&
  let position = Hashtbl.create 16 in
  List.iteri (fun i id -> Hashtbl.replace position id i) order;
  List.for_all
    (fun (u, v) -> Hashtbl.find position u < Hashtbl.find position v)
    (Dag.edges g)

let all ?(limit = 256) g =
  let indeg = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace indeg id (Dag.in_degree g id)) (Dag.nodes g);
  let n = Dag.node_count g in
  let results = ref [] and found = ref 0 in
  (* Depth-first enumeration over the frontier, visiting candidates in
     ascending id order so output is lexicographic. *)
  let rec go depth acc frontier =
    if !found < limit then
      if depth = n then begin
        incr found;
        results := List.rev acc :: !results
      end
      else
        List.iter
          (fun id ->
            let opened =
              List.filter
                (fun v ->
                  let d = Hashtbl.find indeg v - 1 in
                  Hashtbl.replace indeg v d;
                  d = 0)
                (Dag.succs g id)
            in
            let frontier' = List.merge compare opened (List.filter (fun x -> x <> id) frontier) in
            go (depth + 1) (id :: acc) frontier';
            List.iter
              (fun v -> Hashtbl.replace indeg v (Hashtbl.find indeg v + 1))
              (Dag.succs g id))
          frontier
  in
  let initial = List.filter (fun id -> Hashtbl.find indeg id = 0) (Dag.nodes g) in
  go 0 [] initial;
  List.rev !results

let count_at_most ~limit g = List.length (all ~limit g)
