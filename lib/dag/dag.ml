module Imap = Map.Make (Int)
module Iset = Set.Make (Int)

type 'a t = {
  payloads : 'a Imap.t;
  forward : Iset.t Imap.t; (* u -> successors *)
  backward : Iset.t Imap.t; (* v -> predecessors *)
}

let empty = { payloads = Imap.empty; forward = Imap.empty; backward = Imap.empty }

let mem g id = Imap.mem id g.payloads

let add_node g id payload =
  if mem g id then invalid_arg (Printf.sprintf "Dag.add_node: duplicate node %d" id);
  {
    payloads = Imap.add id payload g.payloads;
    forward = Imap.add id Iset.empty g.forward;
    backward = Imap.add id Iset.empty g.backward;
  }

let add_edge g u v =
  if not (mem g u) then invalid_arg (Printf.sprintf "Dag.add_edge: missing source %d" u);
  if not (mem g v) then invalid_arg (Printf.sprintf "Dag.add_edge: missing target %d" v);
  let add k x m = Imap.update k (function None -> Some (Iset.singleton x) | Some s -> Some (Iset.add x s)) m in
  { g with forward = add u v g.forward; backward = add v u g.backward }

let payload g id =
  match Imap.find_opt id g.payloads with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Dag.payload: unknown node %d" id)
let nodes g = Imap.bindings g.payloads |> List.map fst
let node_count g = Imap.cardinal g.payloads

let neighbour m id = match Imap.find_opt id m with None -> Iset.empty | Some s -> s
let succs g id = Iset.elements (neighbour g.forward id)
let preds g id = Iset.elements (neighbour g.backward id)
let in_degree g id = Iset.cardinal (neighbour g.backward id)
let out_degree g id = Iset.cardinal (neighbour g.forward id)

let edge_count g = Imap.fold (fun _ s acc -> acc + Iset.cardinal s) g.forward 0

let edges g =
  Imap.fold (fun u s acc -> Iset.fold (fun v acc -> (u, v) :: acc) s acc) g.forward []
  |> List.sort compare

let sources g = List.filter (fun id -> in_degree g id = 0) (nodes g)
let sinks g = List.filter (fun id -> out_degree g id = 0) (nodes g)

let map f g = { g with payloads = Imap.map f g.payloads }

let of_edges node_list edge_list =
  let g = List.fold_left (fun g (id, p) -> add_node g id p) empty node_list in
  List.fold_left (fun g (u, v) -> add_edge g u v) g edge_list

let is_acyclic g =
  (* Kahn's algorithm: the graph is acyclic iff every node gets emitted. *)
  let indeg = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace indeg id (in_degree g id)) (nodes g);
  let ready = Queue.create () in
  Hashtbl.iter (fun id d -> if d = 0 then Queue.add id ready) indeg;
  let emitted = ref 0 in
  while not (Queue.is_empty ready) do
    let id = Queue.pop ready in
    incr emitted;
    List.iter
      (fun v ->
        let d = Hashtbl.find indeg v - 1 in
        Hashtbl.replace indeg v d;
        if d = 0 then Queue.add v ready)
      (succs g id)
  done;
  !emitted = node_count g

let weakly_connected g subset =
  match subset with
  | [] -> true
  | first :: _ ->
      let inside = Hashtbl.create 16 in
      List.iter (fun id -> Hashtbl.replace inside id ()) subset;
      let seen = Hashtbl.create 16 in
      let rec visit id =
        if Hashtbl.mem inside id && not (Hashtbl.mem seen id) then begin
          Hashtbl.add seen id ();
          List.iter visit (succs g id);
          List.iter visit (preds g id)
        end
      in
      visit first;
      Hashtbl.length seen = List.length subset

let induced g subset =
  let inside = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace inside id ()) subset;
  let keep id = Hashtbl.mem inside id in
  let node_list = List.filter_map (fun id -> if keep id then Some (id, payload g id) else None) (nodes g) in
  let edge_list = List.filter (fun (u, v) -> keep u && keep v) (edges g) in
  of_edges node_list edge_list

let pp pp_payload ppf g =
  List.iter
    (fun id ->
      Fmt.pf ppf "%d %a -> %a@." id pp_payload (payload g id)
        Fmt.(list ~sep:(any ",") int)
        (succs g id))
    (nodes g)
