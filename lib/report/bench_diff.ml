type kind = Wall_s | Ns_per_run
type entry = { name : string; kind : kind; value : float }
type row = { name : string; kind : kind; baseline : float; current : float; ratio : float }

type report = {
  threshold : float;
  rows : row list;
  regressions : row list;
  improvements : row list;
  missing_in_current : string list;
  missing_in_baseline : string list;
}

(* A measurement list like [{"name": .., "ns_per_run": ..}, ..]; entries
   whose value is null (NaN at emission time) are dropped. *)
let series kind field json =
  List.filter_map
    (fun item ->
      let name = Tf_json.get_string (Tf_json.member "name" item) in
      match Tf_json.float_opt (Tf_json.member field item) with
      | Some v when Float.is_finite v -> Some { name; kind; value = v }
      | _ -> None)
    (Tf_json.get_list json)

let entries doc =
  match Tf_json.get_string (Tf_json.member "schema" doc) with
  | "transfusion-bench/v1" ->
      series Wall_s "wall_s" (Tf_json.member "figures" doc)
      @ series Ns_per_run "ns_per_run" (Tf_json.member "microbench" doc)
  | "transfusion-bench-trajectory/v1" ->
      let current = Tf_json.member "current" doc in
      let wall =
        match Option.bind (Tf_json.find "quick_bench_wall_s" current) Tf_json.float_opt with
        | Some v -> [ { name = "bench --quick (total)"; kind = Wall_s; value = v } ]
        | None -> []
      in
      series Ns_per_run "ns_per_run" (Tf_json.member "microbench" current) @ wall
  | s -> raise (Tf_json.Bad_json (Printf.sprintf "unsupported bench schema %S" s))

let compare_docs ?(threshold = 1.5) ~baseline current =
  if threshold <= 1. then invalid_arg "Bench_diff.compare_docs: threshold must exceed 1";
  let base = entries baseline and cur = entries current in
  let find name (l : entry list) = List.find_opt (fun (e : entry) -> String.equal e.name name) l in
  let rows =
    List.filter_map
      (fun (b : entry) ->
        match find b.name cur with
        | Some c when b.value > 0. ->
            Some
              {
                name = b.name;
                kind = b.kind;
                baseline = b.value;
                current = c.value;
                ratio = c.value /. b.value;
              }
        | _ -> None)
      base
    |> List.sort (fun a b -> compare a.name b.name)
  in
  {
    threshold;
    rows;
    regressions = List.filter (fun r -> r.ratio > threshold) rows;
    improvements = List.filter (fun r -> r.ratio < 1. /. threshold) rows;
    missing_in_current =
      List.filter_map
        (fun (b : entry) -> if find b.name cur = None then Some b.name else None)
        base;
    missing_in_baseline =
      List.filter_map
        (fun (c : entry) -> if find c.name base = None then Some c.name else None)
        cur;
  }

let has_regressions r = r.regressions <> []

let strict_failures ~rules r =
  List.filter
    (fun (row : row) ->
      List.exists
        (fun (prefix, ratio) -> String.starts_with ~prefix row.name && row.ratio > ratio)
        rules)
    r.rows

let kind_unit = function Wall_s -> "s" | Ns_per_run -> "ns/run"

let render r =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "bench diff (threshold %.2fx): %d matched, %d regressions, %d improvements\n" r.threshold
    (List.length r.rows) (List.length r.regressions) (List.length r.improvements);
  pf "%-52s %14s %14s %8s\n" "entry" "baseline" "current" "ratio";
  List.iter
    (fun row ->
      let flag =
        if row.ratio > r.threshold then "  << REGRESSION"
        else if row.ratio < 1. /. r.threshold then "  (improved)"
        else ""
      in
      pf "%-52s %12.1f %s %12.1f %s %7.2fx%s\n" row.name row.baseline (kind_unit row.kind)
        row.current (kind_unit row.kind) row.ratio flag)
    r.rows;
  List.iter (fun n -> pf "only in baseline: %s\n" n) r.missing_in_current;
  List.iter (fun n -> pf "only in current:  %s\n" n) r.missing_in_baseline;
  Buffer.contents buf
