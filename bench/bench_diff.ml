(* CI perf-regression guard: compare two bench JSON documents by name
   with a relative threshold (see Tf_report.Bench_diff for the schema
   and matching rules).

     bench_diff [--threshold 1.5] [--warn-only] [--fail-on PREFIX=RATIO]...
                BASELINE.json CURRENT.json

   --fail-on makes the named benchmark family strict: a matched entry
   whose name starts with PREFIX and whose ratio exceeds RATIO fails the
   run even under --warn-only (the escape hatch for deterministic
   microbench families on noisy CI runners, where the global diff stays
   advisory).  Repeatable.

   Exit status: 0 when no matched entry regressed past the threshold (or
   --warn-only was given) and no --fail-on rule fired, 1 on regressions,
   2 on usage/parse errors. *)

let usage () =
  prerr_endline
    "usage: bench_diff [--threshold RATIO] [--warn-only] [--fail-on PREFIX=RATIO]... \
     BASELINE.json CURRENT.json";
  exit 2

let parse_fail_on s =
  match String.index_opt s '=' with
  | Some i when i > 0 -> (
      let prefix = String.sub s 0 i in
      let ratio = String.sub s (i + 1) (String.length s - i - 1) in
      match float_of_string_opt ratio with
      | Some r when r > 1. -> (prefix, r)
      | _ ->
          prerr_endline "bench_diff: --fail-on ratio must be a ratio above 1";
          exit 2)
  | _ ->
      prerr_endline "bench_diff: --fail-on expects PREFIX=RATIO";
      exit 2

let () =
  let threshold = ref 1.5 in
  let warn_only = ref false in
  let fail_on = ref [] in
  let files = ref [] in
  let i = ref 1 in
  while !i < Array.length Sys.argv do
    (match Sys.argv.(!i) with
    | "--warn-only" -> warn_only := true
    | "--threshold" ->
        if !i + 1 >= Array.length Sys.argv then usage ();
        incr i;
        (match float_of_string_opt Sys.argv.(!i) with
        | Some t when t > 1. -> threshold := t
        | _ ->
            prerr_endline "bench_diff: --threshold must be a ratio above 1";
            exit 2)
    | "--fail-on" ->
        if !i + 1 >= Array.length Sys.argv then usage ();
        incr i;
        fail_on := parse_fail_on Sys.argv.(!i) :: !fail_on
    | s when String.length s > 0 && s.[0] = '-' -> usage ()
    | file -> files := file :: !files);
    incr i
  done;
  match List.rev !files with
  | [ baseline_path; current_path ] -> (
      try
        let baseline = Tf_json.parse_file baseline_path in
        let current = Tf_json.parse_file current_path in
        let report = Tf_report.Bench_diff.compare_docs ~threshold:!threshold ~baseline current in
        print_string (Tf_report.Bench_diff.render report);
        let strict =
          Tf_report.Bench_diff.strict_failures ~rules:(List.rev !fail_on) report
        in
        List.iter
          (fun (row : Tf_report.Bench_diff.row) ->
            Printf.printf "FAIL (--fail-on): %s %.2fx\n" row.Tf_report.Bench_diff.name
              row.Tf_report.Bench_diff.ratio)
          strict;
        if strict <> [] then exit 1;
        if Tf_report.Bench_diff.has_regressions report && not !warn_only then exit 1
      with
      | Tf_json.Bad_json msg ->
          Printf.eprintf "bench_diff: bad JSON: %s\n" msg;
          exit 2
      | Sys_error msg ->
          Printf.eprintf "bench_diff: %s\n" msg;
          exit 2)
  | _ -> usage ()
