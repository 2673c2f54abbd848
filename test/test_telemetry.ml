(* Tests for the daemon's telemetry pipeline: the [stats] and
   [metrics --format prometheus] wire ops, per-request correlation ids
   in access-log records and trace spans, and the access log's
   size-bounded rotation (including tolerance of a torn trailing line
   left by a crashed predecessor).

   Servers here are driven through [handle_line] directly — the socket
   loop is exercised by test_serve.ml; this suite is about what the
   requests leave behind. *)

module Json = Tf_json
module Server = Tf_serve.Server
module Access_log = Tf_serve.Access_log
module Protocol = Tf_serve.Protocol

let response_of line =
  match Json.parse line with
  | Json.Obj _ as doc -> doc
  | _ -> Alcotest.failf "response is not an object: %s" line

let is_ok doc = Json.find "ok" doc = Some (Json.Bool true)

let payload_exn line =
  match Protocol.result_of_line line with
  | Some p -> p
  | None -> Alcotest.failf "no result payload in %s" line

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec scan i = i + m <= n && (String.sub haystack i m = needle || scan (i + 1)) in
  scan 0

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc = match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let temp_path suffix =
  let p = Filename.temp_file "tf_telemetry" suffix in
  Sys.remove p;
  p

let cleanup path =
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    (path :: List.init 16 (fun i -> Printf.sprintf "%s.%d" path (i + 1)))

(* --- the stats wire op ----------------------------------------------- *)

let test_stats_op () =
  let t = Server.create Server.default_config in
  for _ = 1 to 5 do
    ignore (Server.handle_line t {|{"op":"ping"}|} : string)
  done;
  (* Each stats call samples on demand; the second one therefore has a
     two-sample window with a positive span. *)
  ignore (Server.handle_line t {|{"op":"stats"}|} : string);
  let doc = Json.parse (payload_exn (Server.handle_line t {|{"op":"stats"}|})) in
  (match Json.find "schema" doc with
  | Some (Json.Str s) -> Alcotest.(check string) "schema" "transfusion.stats/1" s
  | _ -> Alcotest.fail "schema missing");
  Alcotest.(check bool) "window samples reported" true
    (match Json.find "window_samples" doc with Some (Json.Num n) -> n >= 2. | _ -> false);
  (match Json.find "rates" doc with
  | Some (Json.Obj _) -> ()
  | _ -> Alcotest.fail "windowed rates missing from second stats call");
  (match Json.find "gauges" doc with
  | Some (Json.Obj _ as gauges) ->
      Alcotest.(check bool) "process gauges ride along" true
        (match Json.find "process.uptime_seconds" gauges with
        | Some (Json.Num u) -> u >= 0.
        | _ -> false)
  | _ -> Alcotest.fail "gauges missing");
  match Json.find "counters" doc with
  | Some (Json.Obj _ as counters) ->
      Alcotest.(check bool) "cumulative ping counter present" true
        (match Json.find "serve.ping.requests_total" counters with
        | Some (Json.Num n) -> n >= 5.
        | _ -> false)
  | _ -> Alcotest.fail "counters missing"

(* --- the prometheus metrics format ----------------------------------- *)

let test_metrics_prometheus () =
  let t = Server.create Server.default_config in
  ignore (Server.handle_line t {|{"op":"ping"}|} : string);
  let doc = Json.parse (payload_exn (Server.handle_line t {|{"op":"metrics","format":"prometheus"}|})) in
  let body =
    match Json.find "body" doc with
    | Some (Json.Str s) -> s
    | _ -> Alcotest.fail "exposition body missing"
  in
  Alcotest.(check bool) "per-op counters folded into a labelled family" true
    (contains body "serve_requests_total{op=\"ping\"}");
  Alcotest.(check bool) "latency histogram exposed" true
    (contains body "serve_latency_seconds_bucket{op=\"ping\",le=\"+Inf\"}");
  let n = String.length body in
  Alcotest.(check string) "EOF-terminated" "# EOF\n" (String.sub body (n - 6) 6);
  (* JSON remains the default; unknown formats are an error, not a guess. *)
  Alcotest.(check bool) "json format still served" true
    (is_ok (response_of (Server.handle_line t {|{"op":"metrics","format":"json"}|})));
  Alcotest.(check bool) "unknown format rejected" false
    (is_ok (response_of (Server.handle_line t {|{"op":"metrics","format":"xml"}|})))

(* --- access log ------------------------------------------------------ *)

let test_access_log_records () =
  let path = temp_path ".log" in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let t = Server.create { Server.default_config with access_log = Some path } in
  ignore (Server.handle_line t {|{"op":"ping","id":"abc"}|} : string);
  ignore (Server.handle_line t {|{"op":"nosuch","id":"bad-op"}|} : string);
  (* Unparseable lines die before reaching an endpoint: no record. *)
  ignore (Server.handle_line t "not json at all" : string);
  (match Server.access_log t with Some log -> Access_log.flush log | None -> ());
  let lines = List.map Json.parse (read_lines path) in
  Alcotest.(check int) "one record per parsed request" 2 (List.length lines);
  (match lines with
  | [ ping; bad ] ->
      let str doc k =
        match Json.find k doc with Some (Json.Str s) -> Some s | _ -> None
      in
      Alcotest.(check (option string)) "schema" (Some "transfusion.access/1") (str ping "schema");
      Alcotest.(check (option string)) "correlation id preserved" (Some "abc") (str ping "id");
      Alcotest.(check (option string)) "op recorded" (Some "ping") (str ping "op");
      Alcotest.(check bool) "wall-clock timestamp in microseconds" true
        (match Json.find "ts_us" ping with Some (Json.Num n) -> n > 1e15 | _ -> false);
      Alcotest.(check bool) "latency in integer nanoseconds" true
        (match Json.find "latency_ns" ping with Some (Json.Num n) -> n >= 0. | _ -> false);
      Alcotest.(check bool) "ping succeeded" true (Json.find "ok" ping = Some (Json.Bool true));
      Alcotest.(check bool) "no cache key for ping" true (Json.find "key" ping = Some Json.Null);
      Alcotest.(check bool) "no tier for ping" true (Json.find "tier" ping = Some Json.Null);
      Alcotest.(check (option string)) "unknown op recorded verbatim" (Some "nosuch")
        (str bad "op");
      Alcotest.(check bool) "unknown op marked failed" true
        (Json.find "ok" bad = Some (Json.Bool false))
  | _ -> Alcotest.fail "expected exactly two records")

let test_access_log_cache_tiers () =
  let path = temp_path ".log" in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let t = Server.create { Server.default_config with access_log = Some path } in
  let req =
    {|{"op":"schedule","arch":"cloud","model":"BERT","seq":1024,"strategy":"transfusion","iterations":2}|}
  in
  ignore (Server.handle_line t req : string);
  ignore (Server.handle_line t req : string);
  (match Server.access_log t with Some log -> Access_log.flush log | None -> ());
  let tiers =
    List.filter_map
      (fun l ->
        match Json.find "tier" (Json.parse l) with Some (Json.Str s) -> Some s | _ -> None)
      (read_lines path)
  in
  Alcotest.(check (list string)) "cold compute then memory hit" [ "computed"; "memory" ] tiers;
  let keys =
    List.filter_map
      (fun l -> match Json.find "key" (Json.parse l) with Some (Json.Str s) -> Some s | _ -> None)
      (read_lines path)
  in
  match keys with
  | [ a; b ] ->
      Alcotest.(check string) "same key both times" a b;
      Alcotest.(check bool) "fingerprint is non-empty hex" true
        (String.length a > 0 && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) a)
  | _ -> Alcotest.fail "both schedule records must carry the cache key"

(* Rotation under a 10k-request hammer: bounded file count and size,
   every surviving file valid NDJSON. *)
let test_access_log_rotation_churn () =
  let path = temp_path ".log" in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let max_bytes = 4096 and max_files = 3 in
  let log = Access_log.create ~max_bytes ~max_files path in
  for i = 1 to 10_000 do
    Access_log.write log
      (Printf.sprintf
         {|{"schema":"transfusion.access/1","ts_us":%d,"id":"r%d","op":"ping","key":null,"tier":null,"latency_ns":%d,"ok":true}|}
         (1754650000000000 + i) i (1000 + i))
  done;
  Access_log.close log;
  let generations =
    List.filter Sys.file_exists
      (path :: List.init 16 (fun i -> Printf.sprintf "%s.%d" path (i + 1)))
  in
  Alcotest.(check bool) "rotation happened" true (List.length generations > 1);
  Alcotest.(check bool)
    (Printf.sprintf "at most live + %d generations (got %d)" max_files (List.length generations))
    true
    (List.length generations <= max_files + 1);
  List.iter
    (fun p ->
      let stat = Unix.stat p in
      Alcotest.(check bool)
        (Printf.sprintf "%s within max_bytes (%d)" (Filename.basename p) stat.Unix.st_size)
        true
        (stat.Unix.st_size <= max_bytes);
      List.iter
        (fun line ->
          match Json.parse line with
          | Json.Obj _ -> ()
          | _ -> Alcotest.failf "non-object record in %s: %s" p line
          | exception _ -> Alcotest.failf "corrupt record in %s: %s" p line)
        (read_lines p))
    generations;
  (* Oldest generations were dropped, recent records survive. *)
  let newest = read_lines path in
  Alcotest.(check bool) "live file holds the newest records" true
    (match List.rev newest with
    | last :: _ -> contains last "\"id\":\"r10000\""
    | [] -> false)

(* A predecessor that died mid-write leaves a partial trailing line; a
   restart must not splice new records onto it. *)
let test_access_log_torn_trailing_line () =
  let path = temp_path ".log" in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let oc = open_out_bin path in
  output_string oc "{\"ok\":true}\n{\"torn\":";
  close_out oc;
  let log = Access_log.create path in
  Access_log.write log {|{"fresh":1}|};
  Access_log.close log;
  match read_lines path with
  | [ first; torn; fresh ] ->
      Alcotest.(check string) "intact record untouched" "{\"ok\":true}" first;
      Alcotest.(check string) "torn line terminated, not extended" "{\"torn\":" torn;
      Alcotest.(check string) "new record on its own line" "{\"fresh\":1}" fresh
  | lines -> Alcotest.failf "expected 3 lines, got %d" (List.length lines)

(* --- correlation ids in traces --------------------------------------- *)

let test_request_id_in_trace () =
  let t = Server.create Server.default_config in
  Tf_obs.Trace.clear ();
  Tf_obs.Trace.start ();
  Fun.protect ~finally:(fun () -> Tf_obs.Trace.stop (); Tf_obs.Trace.clear ()) @@ fun () ->
  ignore (Server.handle_line t {|{"op":"ping","id":"rid-42"}|} : string);
  ignore (Server.handle_line t {|{"op":"evil","id":"rid-evil"}|} : string);
  let trace = Tf_obs.Trace.to_json () in
  Alcotest.(check bool) "span named for the op" true (contains trace "serve.ping");
  Alcotest.(check bool) "client correlation id attached" true (contains trace "rid-42");
  (* Unknown op names are attacker-controlled: they must not mint spans. *)
  Alcotest.(check bool) "no span for unknown ops" false (contains trace "serve.evil");
  Alcotest.(check bool) "unknown op id not traced" false (contains trace "rid-evil")

let test_minted_request_ids_unique () =
  let path = temp_path ".log" in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let t = Server.create { Server.default_config with access_log = Some path } in
  for _ = 1 to 3 do
    ignore (Server.handle_line t {|{"op":"ping"}|} : string)
  done;
  (match Server.access_log t with Some log -> Access_log.flush log | None -> ());
  let ids =
    List.filter_map
      (fun l -> match Json.find "id" (Json.parse l) with Some (Json.Str s) -> Some s | _ -> None)
      (read_lines path)
  in
  Alcotest.(check int) "every request got an id" 3 (List.length ids);
  Alcotest.(check int) "minted ids are distinct" 3 (List.length (List.sort_uniq compare ids))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "tf_telemetry"
    [
      ( "wire",
        [
          quick "stats op reports windowed telemetry" test_stats_op;
          quick "metrics op renders prometheus" test_metrics_prometheus;
        ] );
      ( "access-log",
        [
          quick "records carry the correlation schema" test_access_log_records;
          quick "cache tier per request" test_access_log_cache_tiers;
          quick "rotation bounded under churn" test_access_log_rotation_churn;
          quick "torn trailing line tolerated" test_access_log_torn_trailing_line;
        ] );
      ( "correlation",
        [
          quick "request ids flow into trace spans" test_request_id_in_trace;
          quick "minted ids are unique" test_minted_request_ids_unique;
        ] );
    ]
