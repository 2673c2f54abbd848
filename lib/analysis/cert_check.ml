(* Self-contained validator for transfusion.cert/1 documents.  No
   dependency on Symexpr/Range_cert or the cost pipeline: the document
   is read with the repository's one JSON reader (Tf_json) and every
   claim is re-checked from the certificate text alone. *)

open Tf_json

let bad m = raise (Bad_json m)

(* ---- witness-expression evaluator --------------------------------- *)

(* Expressions are nested arrays [op, a, b] over variables "n"/"k" —
   the same float operations the certifier recorded, replayed here from
   the serialised form alone. *)
let rec eval ~nv ~kv = function
  | Num f -> f
  | Str "n" -> nv
  | Str "k" -> ( match kv with Some k -> k | None -> bad "expression needs k")
  | List [ Str op; a; b ] -> (
      let ea () = eval ~nv ~kv a and eb () = eval ~nv ~kv b in
      match op with
      | "+" -> ea () +. eb ()
      | "-" -> ea () -. eb ()
      | "*" -> ea () *. eb ()
      | "/" -> ea () /. get_float b
      | "max" -> Float.max (ea ()) (eb ())
      | "min" -> Float.min (ea ()) (eb ())
      | "cdiv" -> Float.ceil (ea () /. get_float b)
      | _ -> bad ("unknown operator " ^ op))
  | _ -> bad "malformed expression"

let point_env p = (get_float (member "n" p), Option.map get_float (find "k" p))

(* ---- validation --------------------------------------------------- *)

let validate text =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  (try
     let doc = parse text in
     if get_string (member "schema" doc) <> "transfusion.cert/1" then fail "unknown schema";
     let range = member "range" doc in
     let lo = get_int (member "lo" range)
     and hi = get_int (member "hi" range)
     and step = get_int (member "step" range) in
     let rvar = get_string (member "var" range) in
     if lo < 1 || step < 1 || hi < lo || (hi - lo) mod step <> 0 then
       fail "range %d:%d:%d is not a normalised grid" lo hi step;
     let on_grid x = x >= lo && x <= hi && (x - lo) mod step = 0 in
     let point_on_grid p =
       let nv, kv = point_env p in
       match (rvar, kv) with
       | "n", _ -> on_grid (int_of_float nv)
       | "k", Some k -> on_grid (int_of_float k)
       | _ -> false
     in
     let checks = get_list (member "checks" doc) in
     let claimed_ok = ref [] in
     List.iter
       (fun c ->
         let id = get_string (member "id" c) in
         let ok = get_bool (member "ok" c) in
         claimed_ok := (id, ok) :: !claimed_ok;
         match get_string (member "kind" c) with
         | "divides" -> (
             let q = get_int (member "q" c) in
             match member "fail_at" c with
             | Null ->
                 if not ok then fail "%s: no failing point recorded but ok=false" id;
                 if q < 1 || lo mod q <> 0 || (hi <> lo && step mod q <> 0) then
                   fail "%s: %d does not divide the whole grid %d:%d:%d" id q lo hi step
             | x ->
                 let x = get_int x in
                 if ok then fail "%s: failing point %d recorded but ok=true" id x;
                 if not (on_grid x) then fail "%s: witness %d is not a grid point" id x;
                 if q >= 1 && x mod q = 0 then fail "%s: %d divides witness %d" id q x)
         | "bound" -> (
             let cmp = get_string (member "cmp" c) in
             let bound = get_float (member "bound" c) in
             let exact = get_bool (member "exact" c) in
             let witness = member "witness" c in
             if not (point_on_grid witness) then fail "%s: witness is not a grid point" id;
             (match member "expr" c with
             | Null ->
                 if id <> "sched.makespan" then fail "%s: only the makespan may omit its expression" id
             | e ->
                 let nv, kv = point_env witness in
                 let v = eval ~nv ~kv e in
                 if exact then begin
                   if v <> bound then
                     fail "%s: witness evaluates to %.17g, certificate claims %.17g" id v bound
                 end
                 else if cmp = "le" && v > bound then
                   fail "%s: witness %.17g exceeds claimed upper bound %.17g" id v bound
                 else if cmp = "ge" && v < bound then
                   fail "%s: witness %.17g undercuts claimed lower bound %.17g" id v bound);
             match member "limit" c with
             | Null -> if not ok then fail "%s: informational bound marked failing" id
             | l ->
                 let l = get_float l in
                 let holds = if cmp = "le" then bound <= l else bound >= l in
                 if ok <> holds then fail "%s: ok=%b inconsistent with %.17g %s %.17g" id ok bound cmp l)
         | "eq" ->
             let got = get_float (member "got" c) and want = get_float (member "want" c) in
             if ok <> (got = want) then
               fail "%s: ok=%b but got %.17g, want %.17g" id ok got want
         | "acyclic" -> ()
         | k -> fail "%s: unknown check kind %s" id k)
       checks;
     (* Schedule section: replay the recorded structure at every corner
        with the recorded per-op time expressions and compare against the
        certificate's own corner makespans. *)
     (match member "schedule" doc with
     | Null ->
         if List.exists (fun (id, ok) -> id = "sched.makespan" && ok) !claimed_ok then
           fail "sched.makespan claimed without a schedule section"
     | sched ->
         let nodes = get_int (member "nodes" sched) and epochs = get_int (member "epochs" sched) in
         let instances = get_list (member "instances" sched) in
         let edges =
           List.map
             (fun e -> match get_list e with [ u; v ] -> (get_int u, get_int v) | _ -> bad "edge")
             (get_list (member "edges" sched))
         in
         let times = Hashtbl.create 64 in
         List.iter
           (fun ot ->
             let node = get_int (member "node" ot) in
             Hashtbl.replace times (node, "2d") (member "pe2d" ot);
             Hashtbl.replace times (node, "1d") (member "pe1d" ot))
           (get_list (member "op_times" sched));
         if List.length instances <> nodes * epochs then
           fail "schedule has %d instances, expected %d x %d" (List.length instances) nodes epochs;
         (* acyclicity: the feed order must schedule every same-epoch
            predecessor before its successor *)
         let seen = Hashtbl.create 256 in
         List.iteri
           (fun i inst ->
             match get_list inst with
             | [ node; epoch; _res ] ->
                 let node = get_int node and epoch = get_int epoch in
                 if Hashtbl.mem seen (node, epoch) then
                   fail "instance (%d,%d) scheduled twice" node epoch;
                 List.iter
                   (fun (u, v) ->
                     if v = node && not (Hashtbl.mem seen (u, epoch)) then
                       fail "instance %d of (%d,%d) precedes its dependency %d" i node epoch u)
                   edges;
                 Hashtbl.replace seen (node, epoch) ()
             | _ -> bad "instance row")
           instances;
         let makespan = member "makespan" sched in
         let bound = get_float (member "bound" makespan)
         and exact = get_bool (member "exact" makespan) in
         let corners = get_list (member "corners" makespan) in
         let replay_at nv kv =
           let t1 = ref 0. and t2 = ref 0. in
           let done_ = Hashtbl.create 256 in
           let mk = ref 0. in
           List.iter
             (fun inst ->
               match get_list inst with
               | [ node; epoch; res ] ->
                   let node = get_int node and epoch = get_int epoch and res = get_string res in
                   let dep =
                     List.fold_left
                       (fun acc (u, v) ->
                         if v = node then
                           match Hashtbl.find_opt done_ (u, epoch) with
                           | Some e -> Float.max acc e
                           | None -> acc
                         else acc)
                       0. edges
                   in
                   let timeline = if res = "2d" then t2 else t1 in
                   let start = Float.max !timeline dep in
                   let dt =
                     match Hashtbl.find_opt times (node, res) with
                     | Some e -> eval ~nv ~kv e
                     | None -> bad (Printf.sprintf "no time for node %d on %s" node res)
                   in
                   let fin = start +. dt in
                   timeline := fin;
                   Hashtbl.replace done_ (node, epoch) fin;
                   mk := Float.max !mk fin
               | _ -> bad "instance row")
             instances;
           !mk
         in
         let corner_values =
           List.map
             (fun cv ->
               let nv, kv = point_env (member "at" cv) in
               let claimed = get_float (member "value" cv) in
               let replayed = replay_at nv kv in
               if replayed <> claimed then
                 fail "corner makespan: replay gives %.17g, certificate claims %.17g" replayed
                   claimed;
               if claimed > bound then
                 fail "corner makespan %.17g exceeds the claimed bound %.17g" claimed bound;
               claimed)
             corners
         in
         if exact && not (List.exists (fun v -> v = bound) corner_values) then
           fail "makespan bound %.17g claimed exact but attained at no corner" bound);
     let certified = get_bool (member "certified" doc) in
     let all_ok = List.for_all snd !claimed_ok in
     if certified <> all_ok then fail "certified=%b inconsistent with the checks" certified;
     if not certified then
       match member "witness" doc with
       | Null -> fail "refused certificate carries no witness"
       | w -> if not (point_on_grid w) then fail "refusal witness is not a grid point"
   with
  | Bad_json m -> fail "malformed certificate: %s" m
  | Failure m -> fail "malformed certificate: %s" m);
  match List.rev !problems with
  | [] -> Ok "certificate validates: every witness re-evaluates to its claim"
  | ps -> Error ps
