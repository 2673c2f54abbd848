(* Per-layer accounting over a recorded span tree.

   Spans come from [Tf_obs.Trace]: the benchmark wraps each call it makes
   into a layer's public function in [Tf_obs.Trace.with_span], and the
   library's own spans (strategy.evaluate, tileseek.search,
   dpipe.schedule and the decode spans) nest inside them.  One request is one root
   span; a span's parent is the innermost span that contains it (the
   replays run on one thread), and its self time is its duration minus
   the durations of its children, which on one thread never overlap.
   Summed over a request, the self times of its spans (the root's self
   time being the residual no layer claims) equal the root's duration
   exactly. *)

module J = Tf_report.Json_read

type span = {
  idx : int;
  name : string;
  ts : float;  (** µs, rebased by [Tf_obs.Trace.to_json] *)
  dur : float;  (** µs *)
  request : string option;  (** the root's request id *)
  mutable parent : int;  (** -1 for a root *)
  mutable self : float;
  mutable root : int;
}

(* Collect the buffered events of the current process; tracing stops. *)
let collect () =
  Tf_obs.Trace.stop ();
  let doc = J.parse (Tf_obs.Trace.to_json ()) in
  let events = J.to_list (J.member "traceEvents" doc) in
  let spans =
    List.filter_map
      (fun ev ->
        match J.find "ph" ev with
        | Some (J.Str "X") ->
            let request =
              match J.find "args" ev with
              | Some args -> (
                  match J.find "request_id" args with Some (J.Str s) -> Some s | _ -> None)
              | None -> None
            in
            Some
              (J.to_string (J.member "name" ev), J.to_float (J.member "ts" ev),
               J.to_float (J.member "dur" ev), request)
        | _ -> None)
      events
  in
  let arr = Array.of_list spans in
  (* Parents before children: earlier start first, longer first on ties. *)
  Array.stable_sort
    (fun (_, ts1, d1, _) (_, ts2, d2, _) -> if ts1 <> ts2 then compare ts1 ts2 else compare d2 d1)
    arr;
  let spans =
    Array.mapi
      (fun idx (name, ts, dur, request) ->
        { idx; name; ts; dur; request; parent = -1; self = dur; root = idx })
      arr
  in
  (* Timestamps carry 1 ns of rounding; allow it when testing nesting. *)
  let eps = 0.002 in
  let stack = ref [] in
  Array.iter
    (fun s ->
      let rec pop () =
        match !stack with
        | top :: rest when top.ts +. top.dur < s.ts +. s.dur -. eps ->
            stack := rest;
            pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
      | top :: _ ->
          s.parent <- top.idx;
          s.root <- top.root;
          top.self <- top.self -. s.dur
      | [] -> ());
      stack := s :: !stack)
    spans;
  spans

(* Chrome trace-event JSON with explicit parent and request ids. *)
let write_chrome path spans =
  let oc = open_out_bin path in
  output_string oc "{\"traceEvents\":[\n";
  Array.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      let request =
        match spans.(s.root).request with Some r -> r | None -> spans.(s.root).name
      in
      Printf.fprintf oc
        "{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"request\":%s,\"self_us\":%.3f}}"
        (Tf_experiments.Export.Json.to_line (Tf_experiments.Export.Json.Str s.name))
        s.ts s.dur s.idx s.parent
        (Tf_experiments.Export.Json.to_line (Tf_experiments.Export.Json.Str request))
        s.self)
    spans;
  output_string oc "\n]}\n";
  close_out oc

type request = {
  root : span;
  layers : (string * float) list;  (** self µs per span name, root excluded *)
  members : span list;  (** descendants in start order *)
}

(* Roots named [root_name] whose request id satisfies [keep], each with
   its layer self times. *)
let requests spans ~root_name ~keep =
  let by_root = Hashtbl.create 1024 in
  Array.iter
    (fun s -> if s.parent >= 0 then Hashtbl.replace by_root s.root (s :: Option.value ~default:[] (Hashtbl.find_opt by_root s.root)))
    spans;
  Array.to_list spans
  |> List.filter (fun s -> s.parent < 0 && s.name = root_name && keep s.request)
  |> List.map (fun root ->
         let members = List.rev (Option.value ~default:[] (Hashtbl.find_opt by_root root.idx)) in
         let layers = Hashtbl.create 8 in
         List.iter
           (fun s ->
             Hashtbl.replace layers s.name (s.self +. Option.value ~default:0. (Hashtbl.find_opt layers s.name)))
           members;
         { root; layers = Hashtbl.fold (fun k v acc -> (k, v) :: acc) layers []; members })

(* The per-layer table: total self time per layer over [reqs], the
   residual, and the roots' total — which the first two sum to. *)
let table reqs =
  let totals = Hashtbl.create 16 in
  List.iter
    (fun r ->
      List.iter
        (fun (name, v) -> Hashtbl.replace totals name (v +. Option.value ~default:0. (Hashtbl.find_opt totals name)))
        r.layers)
    reqs;
  let residual = List.fold_left (fun acc r -> acc +. r.root.self) 0. reqs in
  let total = List.fold_left (fun acc r -> acc +. r.root.dur) 0. reqs in
  let rows = List.sort (fun (_, a) (_, b) -> compare b a) (Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals []) in
  (rows, residual, total)

let print_table ~title (rows, residual, total) =
  Printf.eprintf "per-layer self time, %s (us, share of in-process request time)\n" title;
  let line name v = Printf.eprintf "  %-24s %14.1f  %6.2f%%\n" name v (100. *. v /. total) in
  List.iter (fun (name, v) -> line name v) rows;
  line "(residual)" residual;
  let sum = List.fold_left (fun acc (_, v) -> acc +. v) residual rows in
  Printf.eprintf "  %-24s %14.1f  (layers + residual = %.1f)\n%!" "(requests total)" total sum

(* Median over the requests that have a layer, of that layer's self time. *)
let layer_median reqs name =
  match List.filter_map (fun r -> List.assoc_opt name r.layers) reqs with
  | [] -> 0.
  | l -> Host.median l
