type t = { first : int list; second : int list }

let pp ppf { first; second } =
  Fmt.pf ppf "{%a | %a}" Fmt.(list ~sep:(any " ") int) first Fmt.(list ~sep:(any " ") int) second

let reachable_within g subset seeds =
  let inside = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace inside id ()) subset;
  let seen = Hashtbl.create 16 in
  let rec visit id =
    if Hashtbl.mem inside id && not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      List.iter visit (Dag.succs g id)
    end
  in
  List.iter visit seeds;
  seen

let is_valid g { first; second } =
  let all_nodes = Dag.nodes g in
  let union = List.sort_uniq compare (first @ second) in
  let disjoint = List.length first + List.length second = List.length union in
  disjoint && union = all_nodes && first <> [] && second <> []
  &&
  let in_first = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace in_first id ()) first;
  let mem_first id = Hashtbl.mem in_first id in
  (* 1. source-sink alignment *)
  List.for_all mem_first (Dag.sources g)
  && List.for_all (fun id -> not (mem_first id)) (Dag.sinks g)
  (* 2. weak connectivity of both sides *)
  && Dag.weakly_connected g first
  && Dag.weakly_connected g second
  (* 3. dependency completeness of the first side *)
  && List.for_all (fun id -> List.for_all mem_first (Dag.preds g id)) first
  (* 4. reachability of the first side from the DAG sources, within first *)
  &&
  let sources_in_first = List.filter mem_first (Dag.sources g) in
  let seen = reachable_within g first sources_in_first in
  List.for_all (Hashtbl.mem seen) first

let enumerate ?(limit = 512) g =
  let order = Topo.sort g in
  (* Index the nodes densely once ([ids] ascending, as [Dag.nodes]); the
     walk and its leaf checks then run on arrays only. *)
  let ids = Array.of_list (Dag.nodes g) in
  let n = Array.length ids in
  let index_of = Hashtbl.create (2 * n) in
  Array.iteri (fun i id -> Hashtbl.replace index_of id i) ids;
  let indices l = Array.of_list (List.map (Hashtbl.find index_of) l) in
  let preds = Array.map (fun id -> indices (Dag.preds g id)) ids in
  let succs = Array.map (fun id -> indices (Dag.succs g id)) ids in
  let adjacent = Array.map2 Array.append succs preds in
  let order = indices order in
  let in_first = Array.make n false in
  let seen = Array.make n false and stack = Array.make n 0 in
  (* Weak connectivity of the side [in_first = side] holding [size]
     nodes: a flood fill from its lowest index must reach all of them. *)
  let connected side size =
    Array.fill seen 0 n false;
    let start = ref 0 in
    while in_first.(!start) <> side do incr start done;
    seen.(!start) <- true;
    stack.(0) <- !start;
    let top = ref 1 and reached = ref 1 in
    while !top > 0 do
      decr top;
      Array.iter
        (fun v ->
          if in_first.(v) = side && not seen.(v) then begin
            seen.(v) <- true;
            incr reached;
            stack.(!top) <- v;
            incr top
          end)
        adjacent.(stack.(!top))
    done;
    !reached = size
  in
  let results = ref [] and found = ref 0 in
  (* Walk nodes in topological order deciding membership of the first side.
     A node may join the first side only if all its predecessors did, so
     every leaf is predecessor-closed; a closed first side also contains a
     path back to a source from each of its nodes, so reachability holds
     too.  Sinks never join the first side, and sources always do (a
     source on the second side can never yield a valid leaf, so that
     branch is not walked).  What remains to check at a leaf is that both
     sides are non-empty and weakly connected. *)
  let rec go pos first_rev size =
    if !found < limit then
      if pos = n then begin
        if size > 0 && size < n && connected true size && connected false (n - size) then begin
          let second = ref [] in
          for i = n - 1 downto 0 do
            if not in_first.(i) then second := ids.(i) :: !second
          done;
          incr found;
          results := { first = List.rev first_rev; second = !second } :: !results
        end
      end
      else begin
        let i = order.(pos) in
        (* Branch 1: i goes to the second side. *)
        if Array.length preds.(i) > 0 then go (pos + 1) first_rev size;
        (* Branch 2: i goes to the first side, if permitted. *)
        if Array.length succs.(i) > 0 && Array.for_all (fun p -> in_first.(p)) preds.(i) then begin
          in_first.(i) <- true;
          go (pos + 1) (ids.(i) :: first_rev) (size + 1);
          in_first.(i) <- false
        end
      end
  in
  go 0 [] 0;
  List.rev !results
