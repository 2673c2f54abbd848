(* Tests for the scheduling daemon: wire protocol, the differential
   guarantee (daemon responses bit-identical to one-shot CLI output),
   single-flight deduplication under concurrent clients, disk-tier
   rehydration across restarts, seq-len bucketing, and the fuzz
   property that no mutated request ever kills the request loop. *)

module Json = Tf_json
module Protocol = Tf_serve.Protocol
module Server = Tf_serve.Server
module Api = Tf_serve.Api
module Request = Tf_serve.Request
module Strategies = Transfusion.Strategies
open Tf_workloads

let mem_server () = Server.create Server.default_config

let counter name = Option.value ~default:0 (Tf_obs.counter_value (Tf_obs.snapshot ()) name)

let response_of line =
  match Json.parse line with
  | Json.Obj _ as doc -> doc
  | _ -> Alcotest.failf "response is not an object: %s" line

let is_ok doc = Json.find "ok" doc = Some (Json.Bool true)

let payload_exn line =
  match Protocol.result_of_line line with
  | Some p -> p
  | None -> Alcotest.failf "no result payload in %s" line

(* --- protocol ------------------------------------------------------- *)

let test_protocol_roundtrip () =
  let req = Protocol.parse_request {|{"op":"ping","id":"a7","seq":1024}|} in
  Alcotest.(check string) "op" "ping" req.Protocol.op;
  Alcotest.(check bool) "id echoed" true (req.Protocol.id = Json.Str "a7");
  Alcotest.(check int) "int field" 1024 (Protocol.int_field req.Protocol.body "seq" ~default:0);
  Alcotest.(check int) "int default" 64 (Protocol.int_field req.Protocol.body "batch" ~default:64);
  let ok = Protocol.ok_line ~id:(Json.Str "a7") ~op:"ping" {|{"pong":true}|} in
  Alcotest.(check (option string)) "result splice inverts" (Some {|{"pong":true}|})
    (Protocol.result_of_line ok);
  let doc = response_of ok in
  Alcotest.(check bool) "ok response parses ok" true (is_ok doc);
  Alcotest.(check bool) "schema tagged" true
    (Json.find "schema" doc = Some (Json.Str Protocol.schema));
  let err = Protocol.error_line ~op:"ping" "boom \"quoted\"" in
  let edoc = response_of err in
  Alcotest.(check bool) "error not ok" true (Json.find "ok" edoc = Some (Json.Bool false));
  Alcotest.(check bool) "error message survives quoting" true
    (Json.find "error" edoc = Some (Json.Str "boom \"quoted\""))

let test_protocol_rejects () =
  let rejects s =
    match Protocol.parse_request s with
    | exception Protocol.Bad_request _ -> ()
    | _ -> Alcotest.failf "expected Bad_request on %s" s
  in
  rejects "";
  rejects "not json";
  rejects {|{"op":"ping"|};
  rejects {|{"op":42}|};
  rejects {|{"noop":"ping"}|};
  rejects {|[1,2,3]|};
  rejects {|{"op":"ping"} trailing|};
  rejects {|{"op":"ping","id":[1]}|};
  (* Over-long and over-deep hostile lines are rejected, not fatal. *)
  rejects (Printf.sprintf {|{"op":"ping","pad":"%s"}|} (String.make Protocol.max_request_bytes 'x'));
  rejects (String.make 100_000 '[')

(* --- routing and failure discipline ---------------------------------- *)

let test_handle_line_total () =
  let t = mem_server () in
  List.iter
    (fun line ->
      let doc = response_of (Server.handle_line t line) in
      Alcotest.(check bool) ("rejected: " ^ line) true (not (is_ok doc)))
    [
      "";
      "garbage";
      {|{"op":"nosuch"}|};
      {|{"op":"schedule","model":"NoSuchModel"}|};
      {|{"op":"schedule","arch":"warp"}|};
      {|{"op":"schedule","strategy":"quantum"}|};
      {|{"op":"schedule","seq":"big"}|};
      {|{"op":"schedule","seq":-5}|};
      {|{"op":"schedule","iterations":0}|};
      {|{"op":"decode","gen":-1}|};
      String.make 100_000 '[';
    ];
  let ping = response_of (Server.handle_line t {|{"op":"ping"}|}) in
  Alcotest.(check bool) "ping still served after the abuse" true (is_ok ping)

let test_metrics_endpoint () =
  let t = mem_server () in
  ignore (Server.handle_line t {|{"op":"ping"}|} : string);
  let doc = response_of (Server.handle_line t {|{"op":"metrics"}|}) in
  Alcotest.(check bool) "ok" true (is_ok doc);
  let metrics = Json.member "metrics" (Json.member "result" doc) in
  let pings = Json.get_float (Json.member "serve.ping.requests_total" metrics) in
  Alcotest.(check bool) "per-endpoint counter present and counting" true (pings >= 1.);
  (match Json.member "serve.ping.latency_seconds" metrics with
  | Json.Obj fields ->
      Alcotest.(check bool) "latency histogram has buckets" true
        (List.mem_assoc "buckets" fields && List.mem_assoc "count" fields)
  | _ -> Alcotest.fail "latency histogram missing");
  Alcotest.(check bool) "connections gauge present" true
    (Json.find "serve.connections_active" metrics <> None)

(* --- wire JSON: the reader refuses what RFC 8259 refuses --------------- *)

let error_of line =
  let doc = response_of line in
  if is_ok doc then Alcotest.failf "expected ok:false, got %s" line;
  Json.get_string (Json.member "error" doc)

let test_strict_numbers () =
  let t = mem_server () in
  List.iter
    (fun req -> ignore (error_of (Server.handle_line t req) : string))
    [
      {|{"op":"ping","id":+7}|};
      {|{"op":"ping","id":.5}|};
      {|{"op":"ping","id":007}|};
      {|{"op":"ping","id":1.}|};
      {|{"op":"ping","id":1e}|};
      {|{"op":"ping","id":-}|};
      {|{"op":"ping","seq":+1024}|};
    ];
  List.iter
    (fun (id, echoed) ->
      let line = Server.handle_line t (Printf.sprintf {|{"op":"ping","id":%s}|} id) in
      Alcotest.(check bool) ("accepted: " ^ id) true (is_ok (response_of line));
      Alcotest.(check bool) ("echoed: " ^ id) true (Json.find "id" (response_of line) = Some (Json.Num echoed)))
    [ ("-0", -0.); ("0.5", 0.5); ("1E5", 1e5); ("1e+15", 1e15) ]

let test_unicode_escapes () =
  let t = mem_server () in
  let ping id = Server.handle_line t (Printf.sprintf {|{"op":"ping","id":"%s"}|} id) in
  Alcotest.(check string) "an escaped pair echoes as the raw 4-byte character" (ping "\xF0\x9F\x98\x80")
    (ping {|\ud83d\ude00|});
  Alcotest.(check string) "a BMP escape echoes as its UTF-8" (ping "\xC3\xA9") (ping {|\u00e9|});
  List.iter
    (fun id -> ignore (error_of (ping id) : string))
    [ {|\ud800|}; {|\udc00|}; {|\ud800\u0041|}; {|\ud83dx|} ]

let test_int_fields_range_checked () =
  let t = mem_server () in
  List.iter
    (fun seq ->
      let msg = error_of (Server.handle_line t (Printf.sprintf {|{"op":"schedule","seq":%s}|} seq)) in
      Alcotest.(check string) ("seq " ^ seq) {|field "seq" must be an integer|} msg)
    [ "5e18"; "1e30"; "-1e30"; "1.5" ];
  let req = Protocol.parse_request {|{"op":"ping","seq":1024.0,"big":9007199254740992}|} in
  Alcotest.(check int) "integral float" 1024 (Protocol.int_field req.Protocol.body "seq" ~default:0);
  Alcotest.(check int) "2^53 still exact" (1 lsl 53)
    (Protocol.int_field req.Protocol.body "big" ~default:0)

(* --- differential: daemon vs one-shot -------------------------------- *)

let iterations = 30

let sched_request ?(batch = 8) arch model seq strategy =
  Printf.sprintf
    {|{"op":"schedule","arch":"%s","model":"%s","seq":%d,"batch":%d,"strategy":"%s","iterations":%d}|}
    arch model seq batch strategy iterations

let test_differential_schedule () =
  let t = mem_server () in
  List.iter
    (fun (arch_name, seq, strategy) ->
      let arch = Option.get (Tf_arch.Presets.by_name arch_name) in
      let model = Option.get (Presets.by_name "T5") in
      let w = Workload.v ~batch:8 model ~seq_len:seq in
      let direct = Json.to_line (Api.eval_doc ~iterations arch w (Option.get (Strategies.of_name strategy))) in
      let served = payload_exn (Server.handle_line t (sched_request arch_name model.Model.name seq strategy)) in
      Alcotest.(check string)
        (Printf.sprintf "bit-identical payload: %s/%d/%s" arch_name seq strategy)
        direct served;
      (* A warm repeat replays the exact bytes from the cache. *)
      let warm = payload_exn (Server.handle_line t (sched_request arch_name model.Model.name seq strategy)) in
      Alcotest.(check string) "warm hit bit-identical" direct warm)
    [
      ("cloud", 1024, "unfused");
      ("cloud", 4096, "transfusion");
      ("edge", 1024, "transfusion");
      ("edge", 4096, "flat");
    ]

let test_differential_explain () =
  let t = mem_server () in
  let req =
    {
      Request.Explain.arch = Tf_arch.Presets.edge;
      model = Presets.t5;
      seq = 1024;
      batch = 8;
      iterations;
      seed = 7;
      causal = false;
    }
  in
  let direct = Json.to_line (Tf_report.Explain.to_json (Api.explain req)) in
  let served =
    payload_exn
      (Server.handle_line t
         (Printf.sprintf
            {|{"op":"explain","arch":"edge","model":"T5","seq":1024,"batch":8,"iterations":%d,"seed":7}|}
            iterations))
  in
  Alcotest.(check string) "explain payload bit-identical" direct served

let decode_doc req = Tf_experiments.Exp_generation.to_json (Api.decode req)

let small_decode =
  {
    Request.Decode.arch = Tf_arch.Presets.edge;
    models = [ Presets.t5 ];
    strategies = [ Strategies.Transfusion ];
    gen = 64;
    batch = 4;
    iterations;
    quick = true;
  }

let test_differential_decode () =
  let t = mem_server () in
  let direct = Json.to_line (decode_doc small_decode) in
  let served =
    payload_exn
      (Server.handle_line t
         (Printf.sprintf
            {|{"op":"decode","arch":"edge","model":"T5","strategy":"transfusion","gen":64,"batch":4,"iterations":%d,"quick":true}|}
            iterations))
  in
  Alcotest.(check string) "decode payload bit-identical" direct served

(* The one-shot CLI binary.  Under `dune runtest` the cwd is the test
   directory (the binary is a declared dep one level up); `dune exec`
   runs from the project root. *)
let cli_binary () =
  match
    List.find_opt Sys.file_exists
      [ "../bin/transfusion_cli.exe"; "_build/default/bin/transfusion_cli.exe" ]
  with
  | Some c -> c
  | None -> Alcotest.skip ()

(* Run the CLI with [args]; its exit status and stdout (stderr too when
   [stderr]). *)
let run_cli ?(stderr = false) args =
  let cmd = Printf.sprintf "%s %s 2>%s" (cli_binary ()) args (if stderr then "&1" else "/dev/null") in
  let ic = Unix.open_process_in cmd in
  let out = In_channel.input_all ic in
  let code = match Unix.close_process_in ic with Unix.WEXITED c -> c | _ -> -1 in
  (code, out)

(* The strongest form of the differential: the CLI process prints the
   pretty rendering, and the daemon serves the compact rendering, of one
   document [doc], for each daemon request in [requests]. *)
let check_cli_and_daemon ~args ~requests doc =
  (match run_cli args with
  | 0, out -> Alcotest.(check string) ("CLI stdout: transfusion " ^ args) (Json.to_string doc) out
  | code, _ -> Alcotest.failf "transfusion %s exited %d" args code);
  let t = mem_server () in
  List.iter
    (fun request ->
      Alcotest.(check string) ("daemon payload: " ^ request) (Json.to_line doc)
        (payload_exn (Server.handle_line t request)))
    requests

let defaults spec = Request.of_json spec (Json.Obj [])
let small = "-a edge -m T5 -s 1024 -b 8"

let test_differential_cli_binary () =
  let eval_json req = Api.result_json (fst (Api.schedule req)) in
  check_cli_and_daemon
    ~args:(Printf.sprintf "eval %s --strategy unfused --iterations %d --json -" small iterations)
    ~requests:[ sched_request "edge" "T5" 1024 "unfused" ]
    (Api.eval_doc ~iterations Tf_arch.Presets.edge (Workload.v ~batch:8 Presets.t5 ~seq_len:1024)
       Strategies.Unfused);
  check_cli_and_daemon ~args:"eval --json -" ~requests:[ {|{"op":"schedule"}|} ]
    (eval_json (defaults Request.Schedule.spec))

let test_differential_cli_explain () =
  let explain_doc req = Tf_report.Explain.to_json (Api.explain req) in
  check_cli_and_daemon
    ~args:(Printf.sprintf "explain %s --iterations %d --seed 7 --causal --json -" small iterations)
    ~requests:
      [
        Printf.sprintf
          {|{"op":"explain","arch":"edge","model":"T5","seq":1024,"batch":8,"iterations":%d,"seed":7,"causal":true}|}
          iterations;
      ]
    (explain_doc
       {
         Request.Explain.arch = Tf_arch.Presets.edge;
         model = Presets.t5;
         seq = 1024;
         batch = 8;
         iterations;
         seed = 7;
         causal = true;
       });
  check_cli_and_daemon ~args:"explain --json -" ~requests:[ {|{"op":"explain"}|} ]
    (explain_doc (defaults Request.Explain.spec))

let test_differential_cli_decode () =
  check_cli_and_daemon
    ~args:
      (Printf.sprintf
         "decode -a edge -m T5 --strategy transfusion --gen 64 -b 4 --iterations %d --quick --json -"
         iterations)
    ~requests:
      [
        Printf.sprintf
          {|{"op":"decode","arch":"edge","models":["T5"],"strategies":"transfusion","gen":64,"batch":4,"iterations":%d,"quick":true}|}
          iterations;
      ]
    (decode_doc small_decode);
  check_cli_and_daemon ~args:"decode --quick --json -" ~requests:[ {|{"op":"decode","quick":true}|} ]
    (decode_doc { (defaults Request.Decode.spec) with quick = true })

(* The value of counter [name] in a [--metrics] snapshot. *)
let metric out name =
  List.find_map
    (fun line ->
      match String.split_on_char ' ' line |> List.filter (( <> ) "") with
      | [ n; v ] when n = name -> Some v
      | _ -> None)
    (String.split_on_char '\n' out)

(* [eval] evaluates once: the human summary and [--json] share the one
   verified result. *)
let test_cli_eval_searches_once () =
  match run_cli (Printf.sprintf "eval %s --iterations %d --json /dev/null --metrics" small iterations) with
  | 0, out ->
      Alcotest.(check (option string)) "tileseek.searches_total" (Some "1")
        (metric out "tileseek.searches_total")
  | code, _ -> Alcotest.failf "eval --metrics exited %d" code

(* The sim trace of a fresh TransFusion evaluation at [r]'s tiling:
   what [--sim-trace] must print without pricing anything again. *)
let fresh_trace ?attention (r : Strategies.result) =
  match
    Strategies.evaluate ~tiling:(Option.get r.Strategies.tiling) ?attention r.Strategies.arch
      r.Strategies.workload Strategies.Transfusion
  with
  | r, Some e -> Tf_report.Explain.trace (Tf_report.Explain.of_execution r e)
  | _, None -> Alcotest.fail "TransFusion returned no execution"

(* [--sim-trace] adds no evaluation state, no layer schedule and no
   DPipe-memo lookup to the run [args] makes. *)
let check_sim_trace_prices_once ~args ~expect =
  let counts extra =
    match run_cli (Printf.sprintf "%s --json /dev/null --metrics%s" args extra) with
    | 0, out ->
        List.map (metric out)
          [
            "strategies.eval_states_total";
            "dpipe.schedules_total";
            "memo.strategies.dpipe.hits_total";
          ]
    | code, _ -> Alcotest.failf "%s --metrics%s exited %d" args extra code
  in
  let counted = Alcotest.(list (option string)) in
  let plain = counts "" in
  Alcotest.(check counted) ("counts of " ^ args) expect plain;
  Alcotest.(check counted) "--sim-trace adds none" plain (counts " --sim-trace /dev/null")

(* [--sim-trace] reads the evaluation [eval] served, and its trace is
   the one a fresh evaluation at the served tiling gives.  On stdout it
   stands alone, like [--json -]: no human summary around it. *)
let test_cli_eval_sim_trace_prices_once () =
  let args = "eval -a cloud -m BERT -s 4096" in
  check_sim_trace_prices_once ~args ~expect:[ Some "1"; Some "20"; Some "0" ];
  let r =
    fst
      (Api.schedule
         (Request.of_json Request.Schedule.spec
            (Json.parse {|{"arch":"cloud","model":"BERT","seq":4096}|})))
  in
  let trace = Json.to_string (fresh_trace r) in
  (match run_cli (args ^ " --json - --sim-trace -") with
  | 0, out ->
      Alcotest.(check string) "eval JSON, then the trace"
        (Json.to_string (Api.result_json r) ^ trace)
        out
  | code, _ -> Alcotest.failf "eval --json - --sim-trace - exited %d" code);
  match run_cli (args ^ " --sim-trace -") with
  | 0, out -> Alcotest.(check string) "the trace alone" trace out
  | code, _ -> Alcotest.failf "eval --sim-trace - exited %d" code

(* [decode --sim-trace] traces the deepest decode step of the last
   TransFusion point from the execution the sweep priced it with. *)
let test_cli_decode_sim_trace_prices_once () =
  let args = "decode --quick --gen 32" in
  let req =
    Request.of_json Request.Decode.spec (Json.parse {|{"quick":true,"gen":32}|})
  in
  let points = Api.decode req in
  check_sim_trace_prices_once ~args ~expect:[ Some "18"; Some "210"; Some "12" ];
  let last =
    List.rev points
    |> List.find_map (fun (p : Tf_experiments.Exp_generation.point) ->
           let m = p.Tf_experiments.Exp_generation.metrics in
           if m.Transfusion.Decode.strategy = Strategies.Transfusion then Some m else None)
    |> Option.get
  in
  let spec = last.Transfusion.Decode.spec in
  let attention = Strategies.Decode { kv_len = Generation.kv_last spec } in
  match run_cli (args ^ " --sim-trace -") with
  | 0, out ->
      Alcotest.(check string) "the trace alone"
        (Json.to_string (fresh_trace ~attention last.Transfusion.Decode.last))
        out
  | code, _ -> Alcotest.failf "decode --sim-trace - exited %d" code

(* Invalid values: the CLI refuses with the daemon's error text and
   Cmdliner's usage-error exit (124), never an internal error. *)
let test_cli_validation_matches_daemon () =
  let squash s = String.concat " " (String.split_on_char ' ' s |> List.filter (( <> ) "")) in
  let flat s = squash (String.map (function '\n' -> ' ' | c -> c) s) in
  let contains ~sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let refused args msg =
    match run_cli ~stderr:true args with
    | 124, out ->
        if not (contains ~sub:(flat msg) (flat out)) then
          Alcotest.failf "transfusion %s: expected %S in %S" args msg out
    | code, out -> Alcotest.failf "transfusion %s exited %d: %s" args code out
  in
  let t = mem_server () in
  List.iter
    (fun (args, request) -> refused args (error_of (Server.handle_line t request)))
    [
      ("eval -s 0", {|{"op":"schedule","seq":0}|});
      ("eval --batch=-3", {|{"op":"schedule","batch":-3}|});
      ("eval --iterations 0", {|{"op":"schedule","iterations":0}|});
      ("explain -s 0", {|{"op":"explain","seq":0}|});
      ("decode -b 0", {|{"op":"decode","batch":0}|});
      ("decode --gen 0", {|{"op":"decode","gen":0}|});
      ("eval -a warp", {|{"op":"schedule","arch":"warp"}|});
      ("explain -m nope", {|{"op":"explain","model":"nope"}|});
      ("decode -m nope", {|{"op":"decode","models":["nope"]}|});
      ("eval --strategy quantum", {|{"op":"schedule","strategy":"quantum"}|});
      ("decode --strategy quantum", {|{"op":"decode","strategy":"quantum"}|});
    ];
  (* Flags of the CLI alone: the serve daemon's and the simulator's
     sizes, and the cascade command's extents (its file must exist). *)
  let file = Filename.temp_file "cascade" ".txt" in
  List.iter
    (fun (args, msg) -> refused args msg)
    [
      ("serve --cache-entries 0", "cache-entries must be >= 1 (got 0)");
      ("serve --window 0", "window must be >= 1 (got 0)");
      ("serve --sample-interval 0", "sample-interval must be > 0 (got 0)");
      ( "serve --access-log " ^ Filename.concat (Filename.dirname file) "unused.log"
        ^ " --access-log-max-bytes 0",
        "access-log-max-bytes must be >= 1 (got 0)" );
      ( "serve --access-log " ^ Filename.concat (Filename.dirname file) "unused.log"
        ^ " --access-log-max-files 0",
        "access-log-max-files must be >= 1 (got 0)" );
      ("simulate --capacity 0", "capacity must be >= 1 (got 0)");
      ("simulate --requests 0", "requests must be >= 1 (got 0)");
      ("simulate --qps 0", "qps must be > 0 (got 0)");
      ("cascade " ^ file ^ " --extent p=abc", "invalid value 'abc', expected an integer");
      ("cascade " ^ file ^ " --extent pabc", {|bad extent "pabc" (expected NAME=N)|});
      ("cascade " ^ file ^ " --extent p=0", "extent p must be >= 1 (got 0)");
      ("check --range 0:100", "range LO must be >= 1 (got 0)");
      ("check --range 512:256", "range HI must be >= LO (got 512:256)");
      ("check --range 512:16384:0", "range STEP must be >= 1 (got 0)");
      ("check --range 512:16384:-512", "range STEP must be >= 1 (got -512)");
      ("serve --tcp 999999", "tcp port must be in 1..65535 (got 999999)");
      ("serve --tcp 0", "tcp port must be in 1..65535 (got 0)");
      ("top --tcp 70000", "tcp port must be in 1..65535 (got 70000)");
      ("top --interval 0", "interval must be > 0 (got 0)");
      ("top --timeout 0", "timeout must be > 0 (got 0)");
      ("top --slo-target 1", "slo-target must be in (0, 1) (got 1)");
    ];
  Sys.remove file

(* --- concurrency: one key, one search -------------------------------- *)

let test_concurrent_single_flight () =
  let t = mem_server () in
  (* A key nothing else in this process has asked for. *)
  let request = sched_request ~batch:3 "edge" "BERT" 2048 "transfusion" in
  let misses0 = counter "memo.serve.schedule.misses_total" in
  let n = 8 in
  let results = Array.make n "" in
  let threads =
    List.init n (fun i ->
        Thread.create (fun () -> results.(i) <- Server.handle_line t request) ())
  in
  List.iter Thread.join threads;
  Array.iter
    (fun r ->
      Alcotest.(check string) "every client gets byte-identical responses" results.(0) r;
      Alcotest.(check bool) "and they are ok" true (is_ok (response_of r)))
    results;
  Alcotest.(check int) "the schedule was computed exactly once" 1
    (counter "memo.serve.schedule.misses_total" - misses0)

(* --- restart: disk tier rehydration ---------------------------------- *)

let temp_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let test_restart_rehydration () =
  let dir = temp_dir "tf-serve-cache" in
  let config = { Server.default_config with cache_dir = Some dir } in
  let request = sched_request ~batch:5 "edge" "T5" 1024 "unfused" in
  let first = Server.create config in
  let cold = payload_exn (Server.handle_line first request) in
  (* A different daemon instance: empty memory tier, same disk. *)
  let disk_hits0 = counter "serve.cache.disk_hits_total" in
  let disk_stores0 = counter "serve.cache.disk_stores_total" in
  let second = Server.create config in
  let rehydrated = payload_exn (Server.handle_line second request) in
  Alcotest.(check string) "rehydrated payload bit-identical" cold rehydrated;
  Alcotest.(check int) "served from the disk tier, not recomputed" 1
    (counter "serve.cache.disk_hits_total" - disk_hits0);
  Alcotest.(check int) "a disk hit rewrites nothing" 0
    (counter "serve.cache.disk_stores_total" - disk_stores0);
  (* A corrupt entry reads as a miss, never a failure. *)
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".json" then
        Out_channel.with_open_text (Filename.concat dir f) (fun oc ->
            Out_channel.output_string oc "{corrupt"))
    (Sys.readdir dir);
  let third = Server.create config in
  let recomputed = payload_exn (Server.handle_line third request) in
  Alcotest.(check string) "recomputed past corruption, still identical" cold recomputed

(* The entry files of a cache directory. *)
let entry_files dir =
  List.filter (fun f -> Filename.check_suffix f ".json") (Array.to_list (Sys.readdir dir))

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let schedule_key body =
  Request.Schedule.key (Request.of_json Request.Schedule.spec (Json.parse body))

(* An entry as the retired [transfusion.serve-cache/1] writer laid it
   out: one pretty-printed document holding the key and the payload as
   a JSON string. *)
let v1_entry key payload =
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.Str "transfusion.serve-cache/1");
         ("key", Request.key_json key);
         ("payload", Json.Str payload);
       ])

let one_entry dir =
  match entry_files dir with [ f ] -> Filename.concat dir f | _ -> Alcotest.fail "one entry expected"

(* [s] with its first [sub] replaced by [by]. *)
let replace_first ~sub ~by s =
  let n = String.length sub in
  let rec find i = if String.sub s i n = sub then i else find (i + 1) in
  let at = find 0 in
  String.sub s 0 at ^ by ^ String.sub s (at + n) (String.length s - at - n)

(* A wrong schema reads as a miss and one disk error; the recomputed
   entry replaces it. *)
let test_disk_wrong_schema () =
  let dir = temp_dir "tf-serve-schema" in
  let config = { Server.default_config with cache_dir = Some dir } in
  let request = sched_request ~batch:6 "edge" "T5" 1024 "unfused" in
  let cold = payload_exn (Server.handle_line (Server.create config) request) in
  let path = one_entry dir in
  let entry = read_file path in
  Alcotest.(check bool) "the entry ends in the verbatim payload" true
    (String.ends_with ~suffix:("\n" ^ cold ^ "\n") entry);
  write_file path
    (replace_first ~sub:{|"transfusion.serve-cache/2"|} ~by:{|"transfusion.serve-cache/0"|} entry);
  let errors0 = counter "serve.cache.disk_errors_total" in
  let hits0 = counter "serve.cache.disk_hits_total" in
  let misses0 = counter "serve.cache.disk_misses_total" in
  let again = payload_exn (Server.handle_line (Server.create config) request) in
  Alcotest.(check string) "recomputed payload" cold again;
  Alcotest.(check int) "one disk error" 1 (counter "serve.cache.disk_errors_total" - errors0);
  Alcotest.(check int) "no disk hit" 0 (counter "serve.cache.disk_hits_total" - hits0);
  Alcotest.(check int) "a disk miss" 1 (counter "serve.cache.disk_misses_total" - misses0);
  Alcotest.(check string) "the recomputed entry replaces it" entry (read_file path)

let report ~fp:_ ~tier:_ = ()
let trunc_payload = {|{"schema":"x","s":"a\"b\\c\nd"}|}

(* The current entry of [trunc_payload] under [key], written by a fresh
   cache in [dir]. *)
let stored_entry dir key =
  ignore
    (Tf_serve.Cache.find_or_compute_key (Tf_serve.Cache.create ~dir ()) ~report key (fun () ->
         trunc_payload)
      : string);
  let path = one_entry dir in
  (path, read_file path)

(* [text] planted at [path] reads as a miss and one disk error in a
   fresh cache, which recomputes the payload and stores [entry]. *)
let check_corrupt ~dir ~path ~entry key what text =
  write_file path text;
  let errors0 = counter "serve.cache.disk_errors_total" in
  let hits0 = counter "serve.cache.disk_hits_total" in
  let cache = Tf_serve.Cache.create ~dir () in
  let got = Tf_serve.Cache.find_or_compute_key cache ~report key (fun () -> trunc_payload) in
  Alcotest.(check string) (what ^ ": recomputed") trunc_payload got;
  Alcotest.(check int) (what ^ ": one disk error") 1 (counter "serve.cache.disk_errors_total" - errors0);
  Alcotest.(check int) (what ^ ": no disk hit") 0 (counter "serve.cache.disk_hits_total" - hits0);
  Alcotest.(check string) (what ^ ": entry restored") entry (read_file path)

(* Every proper prefix of an entry reads as a miss and a disk error,
   never as another payload. *)
let test_disk_truncated_entries () =
  let dir = temp_dir "tf-serve-trunc" in
  let key = schedule_key (sched_request ~batch:7 "edge" "T5" 1024 "unfused") in
  let path, entry = stored_entry dir key in
  let complete = String.length entry in
  for len = 0 to complete do
    write_file path (String.sub entry 0 len);
    let errors0 = counter "serve.cache.disk_errors_total" in
    let cache = Tf_serve.Cache.create ~dir () in
    let got = Tf_serve.Cache.find_or_compute_key cache ~report key (fun () -> "computed") in
    let expected = if len = complete then trunc_payload else "computed" in
    Alcotest.(check string) (Printf.sprintf "prefix of %d bytes" len) expected got;
    Alcotest.(check int) (Printf.sprintf "disk errors at %d bytes" len)
      (if len = complete then 0 else 1)
      (counter "serve.cache.disk_errors_total" - errors0)
  done

(* An entry in the retired /1 layout, whole or cut at any byte, is a
   foreign file like any other: one disk error, a recompute, and the
   current entry in its place. *)
let test_disk_v1_entries () =
  let dir = temp_dir "tf-serve-v1" in
  let key = schedule_key (sched_request ~batch:11 "edge" "T5" 1024 "unfused") in
  let path, entry = stored_entry dir key in
  let v1 = v1_entry key trunc_payload in
  for len = 0 to String.length v1 do
    check_corrupt ~dir ~path ~entry key (Printf.sprintf "/1 prefix of %d bytes" len)
      (String.sub v1 0 len)
  done

(* A current entry whose header, key line or tail disagrees with its
   payload is a miss: a wrong length either way, bytes after the
   payload's newline, and a key line that does not digest to the file
   name. *)
let test_disk_corrupt_current_entries () =
  let dir = temp_dir "tf-serve-corrupt" in
  let key = schedule_key (sched_request ~batch:9 "edge" "T5" 1024 "unfused") in
  let path, entry = stored_entry dir key in
  let n = String.length trunc_payload in
  let with_length m =
    replace_first ~sub:(Printf.sprintf {|"payload_bytes":%d}|} n)
      ~by:(Printf.sprintf {|"payload_bytes":%d}|} m)
      entry
  in
  let key_line k = Json.to_line (Request.key_json k) in
  let other = key_line (schedule_key (sched_request ~batch:10 "edge" "T5" 1024 "unfused")) in
  let check = check_corrupt ~dir ~path ~entry key in
  check "payload_bytes + 1" (with_length (n + 1));
  check "payload_bytes - 1" (with_length (n - 1));
  check "trailing bytes" (entry ^ "{}");
  check "trailing newline" (entry ^ "\n");
  check "foreign key line" (replace_first ~sub:(key_line key) ~by:other entry);
  check "huge payload_bytes" (with_length 999_999_999_999_999)

(* The default strategies spelt out key like the empty list: one
   computation and one disk entry, named by the empty list's
   fingerprint. *)
let test_decode_default_strategies () =
  let dir = temp_dir "tf-serve-decode" in
  let t = Server.create { Server.default_config with cache_dir = Some dir } in
  let body =
    Printf.sprintf
      {|"op":"decode","arch":"edge","model":"T5","gen":64,"batch":4,"iterations":%d,"quick":true|}
      iterations
  in
  let misses0 = counter "memo.serve.schedule.misses_total" in
  let implicit = payload_exn (Server.handle_line t ("{" ^ body ^ "}")) in
  let spelt =
    payload_exn (Server.handle_line t ("{" ^ body ^ {|,"strategies":["fusemax","transfusion"]}|}))
  in
  Alcotest.(check string) "same payload" implicit spelt;
  Alcotest.(check int) "one computation" 1 (counter "memo.serve.schedule.misses_total" - misses0);
  let fp =
    Tf_serve.Cache.fingerprint
      (Json.Obj
         [
           ("endpoint", Json.Str "decode");
           ("arch", Json.Str (Strategies.Private.arch_fingerprint Tf_arch.Presets.edge));
           ("models", Json.List [ Json.Str "T5" ]);
           ("strategies", Json.List []);
           ("gen", Json.Int 64);
           ("batch", Json.Int 4);
           ("iterations", Json.Int iterations);
           ("quick", Json.Bool true);
         ])
  in
  Alcotest.(check (list string)) "one entry, named as before" [ fp ^ ".json" ] (entry_files dir)

(* --- bucketing -------------------------------------------------------- *)

let test_bucketing () =
  let t = Server.create { Server.default_config with grid = 1024 } in
  (* The daemon caches its payloads in its own tiers only: cold,
     repeated and interpolated schedules all bypass Exp_common's
     summary memo. *)
  let summary () =
    (counter "memo.exp_common.summary.hits_total", counter "memo.exp_common.summary.misses_total")
  in
  let summary0 = summary () in
  let on_grid = payload_exn (Server.handle_line t (sched_request "edge" "T5" 2048 "unfused")) in
  Alcotest.(check bool) "on-grid answers are plain eval documents" true
    (Json.find "schema" (Json.parse on_grid) = Some (Json.Str Api.eval_schema));
  let off = payload_exn (Server.handle_line t (sched_request "edge" "T5" 1536 "unfused")) in
  let doc = Json.parse off in
  Alcotest.(check bool) "off-grid answers are interpolations" true
    (Json.find "schema" doc = Some (Json.Str "transfusion.eval-interp/1"));
  let interp = Json.member "interpolation" doc in
  let geti k = int_of_float (Json.get_float (Json.member k interp)) in
  Alcotest.(check int) "lo bucket" 1024 (geti "lo");
  Alcotest.(check int) "hi bucket" 2048 (geti "hi");
  Alcotest.(check bool) "bucket is one of the endpoints" true
    (List.mem (geti "bucket_seq_len") [ 1024; 2048 ]);
  Alcotest.(check int) "bucket schedule is exact, from the bucket length"
    (geti "bucket_seq_len")
    (int_of_float (Json.get_float (Json.member "seq_len" (Json.member "bucket" doc))));
  (* The interpolated costs are the exact affine blend of the cached
     endpoint documents. *)
  let costs seq =
    Api.payload_costs (payload_exn (Server.handle_line t (sched_request "edge" "T5" seq "unfused")))
  in
  let lat_lo, en_lo = costs 1024 and lat_hi, en_hi = costs 2048 in
  let f = float_of_int (1536 - 1024) /. float_of_int (2048 - 1024) in
  let lerp a b = a +. ((b -. a) *. f) in
  Alcotest.(check (float 0.0)) "latency lerped between buckets" (lerp lat_lo lat_hi)
    (Json.get_float (Json.member "latency_total_s" interp));
  Alcotest.(check (float 0.0)) "energy lerped between buckets" (lerp en_lo en_hi)
    (Json.get_float (Json.member "energy_total_pj" interp));
  (match Json.member "certified" interp with
  | Json.Bool _ -> ()
  | _ -> Alcotest.fail "certified flag missing");
  Alcotest.(check (pair int int)) "no summary-memo lookups" summary0 (summary ())

(* --- sockets: a real daemon over a Unix socket ----------------------- *)

let start_daemon () =
  let dir = temp_dir "tf-serve-sock" in
  let path = Filename.concat dir "tf.sock" in
  (* A short sampler period, so that shutdown does not wait out a
     one-second tick. *)
  let t =
    Server.create { Server.default_config with socket_path = Some path; sample_interval_s = 0.05 }
  in
  let server_thread = Thread.create Server.serve t in
  let rec wait_for_socket tries =
    if not (Sys.file_exists path) then
      if tries = 0 then Alcotest.fail "server socket never appeared"
      else begin
        Thread.delay 0.05;
        wait_for_socket (tries - 1)
      end
  in
  wait_for_socket 100;
  (t, path, server_thread)

(* A read that waits past the timeout fails the test instead of
   hanging it. *)
let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
  fd

(* One request per round trip: send a line, read its answer. *)
let talk path lines =
  let fd = connect path in
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  let replies =
    List.map
      (fun line ->
        output_string oc (line ^ "\n");
        flush oc;
        match In_channel.input_line ic with
        | Some r -> r
        | None -> Alcotest.fail "connection dropped")
      lines
  in
  close_out oc;
  replies

let send fd s =
  let rec go off =
    if off < String.length s then go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

(* Every line the daemon sends until it closes the connection. *)
let read_until_eof fd =
  let ic = Unix.in_channel_of_descr fd in
  let rec go acc = match In_channel.input_line ic with Some l -> go (l :: acc) | None -> List.rev acc in
  let lines = go [] in
  close_in ic;
  lines

let stop_daemon (_, path, server_thread) =
  (match talk path [ {|{"op":"shutdown"}|} ] with
  | [ r ] -> Alcotest.(check bool) "shutdown acknowledged" true (is_ok (response_of r))
  | _ -> Alcotest.fail "no shutdown reply");
  Thread.join server_thread;
  Alcotest.(check bool) "socket unlinked on exit" false (Sys.file_exists path)

let test_socket_round_trip () =
  let ((_, path, _) as daemon) = start_daemon () in
  (match talk path [ {|{"op":"ping","id":9}|}; "garbage"; {|{"op":"ping"}|} ] with
  | [ a; b; c ] ->
      Alcotest.(check bool) "ping ok" true (is_ok (response_of a));
      Alcotest.(check bool) "id echoed over the wire" true
        (Json.find "id" (response_of a) = Some (Json.Num 9.));
      Alcotest.(check bool) "garbage answered, not fatal" true (not (is_ok (response_of b)));
      Alcotest.(check bool) "connection survives the garbage" true (is_ok (response_of c))
  | _ -> Alcotest.fail "wrong reply count");
  (* A second connection works; shutdown stops the daemon. *)
  stop_daemon daemon

let wire_requests =
  [
    {|{"op":"ping","id":1}|};
    sched_request "edge" "T5" 1024 "unfused";
    "garbage";
    {|{"op":"schedule","arch":"warp","id":"x"}|};
    {|{"op":"ping","id":"é"}|};
  ]

(* Many requests in one write come back in order, each byte-identical
   to its one-at-a-time answer. *)
let test_socket_pipelined () =
  let ((_, path, _) as daemon) = start_daemon () in
  let one_at_a_time = talk path wire_requests in
  let fd = connect path in
  send fd (String.concat "" (List.map (fun l -> l ^ "\n") (wire_requests @ wire_requests)));
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  Alcotest.(check (list string)) "pipelined answers" (one_at_a_time @ one_at_a_time) (read_until_eof fd);
  stop_daemon daemon

(* Framing: a request trickling in one byte per write, CRLF endings,
   empty lines (skipped), and an unterminated last line at end of
   input. *)
let test_socket_framing () =
  let ((_, path, _) as daemon) = start_daemon () in
  let ping id = Printf.sprintf {|{"op":"ping","id":%d}|} id in
  let expected = talk path [ ping 1; ping 2; ping 3; ping 4; ping 5 ] in
  let fd = connect path in
  String.iter
    (fun c ->
      send fd (String.make 1 c);
      Thread.delay 0.0005)
    (ping 1 ^ "\n");
  send fd (ping 2 ^ "\r\n\r\n\n" ^ ping 3 ^ "\r\n");
  send fd ("\n" ^ ping 4 ^ "\n" ^ ping 5);
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  Alcotest.(check (list string)) "answers" expected (read_until_eof fd);
  stop_daemon daemon

(* A line past the protocol limit gets one error line, after the
   answers to the lines before it, and then the connection closes. *)
let test_socket_oversize_line () =
  let ((_, path, _) as daemon) = start_daemon () in
  let fd = connect path in
  send fd ({|{"op":"ping","id":1}|} ^ "\n" ^ String.make (Protocol.max_request_bytes + 1) 'x');
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  (match read_until_eof fd with
  | [ ping; refusal ] ->
      Alcotest.(check bool) "earlier line answered" true (is_ok (response_of ping));
      Alcotest.(check string) "one error line"
        (Protocol.error_line (Printf.sprintf "request exceeds %d bytes" Protocol.max_request_bytes))
        refusal
  | lines -> Alcotest.failf "expected 2 lines before the close, got %d" (List.length lines));
  (* A line of exactly the limit is still a request. *)
  let fd = connect path in
  let pad = Protocol.max_request_bytes - String.length {|{"op":"ping","pad":""}|} in
  send fd (Printf.sprintf {|{"op":"ping","pad":"%s"}|} (String.make pad 'x') ^ "\n");
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  (match read_until_eof fd with
  | [ r ] -> Alcotest.(check bool) "limit-sized line served" true (is_ok (response_of r))
  | lines -> Alcotest.failf "expected 1 line, got %d" (List.length lines));
  stop_daemon daemon

(* Responses larger than the output buffer arrive whole and in order. *)
let test_socket_large_response () =
  let ((t, path, _) as daemon) = start_daemon () in
  let big_id = {|{"op":"ping","id":"|} ^ String.make 100_000 'i' ^ {|"}|} in
  let expected = Server.handle_line t big_id in
  Alcotest.(check bool) "the answer exceeds 64 KiB" true (String.length expected > 65536);
  let fd = connect path in
  send fd (String.concat "\n" [ {|{"op":"ping","id":1}|}; big_id; {|{"op":"metrics"}|}; big_id; "" ]);
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  (match read_until_eof fd with
  | [ a; b; m; c ] ->
      Alcotest.(check bool) "first ping" true (is_ok (response_of a));
      Alcotest.(check string) "large answer whole" expected b;
      Alcotest.(check bool) "metrics whole" true (is_ok (response_of m));
      Alcotest.(check string) "large answer after metrics" expected c
  | lines -> Alcotest.failf "expected 4 lines, got %d" (List.length lines));
  stop_daemon daemon

(* --- fuzz: mutated requests never kill the loop ----------------------- *)

let fuzz_templates =
  [
    {|{"op":"ping","id":3}|};
    {|{"op":"metrics"}|};
    {|{"op":"schedule","arch":"edge","model":"T5","seq":1024,"batch":4,"strategy":"unfused","iterations":5}|};
    {|{"op":"explain","arch":"edge","model":"T5","seq":1024,"batch":4,"iterations":5,"seed":3}|};
    {|{"op":"nosuch","x":[1,2,{"y":null}]}|};
  ]

let mutate r line =
  let b = Bytes.of_string line in
  let mutations = 1 + Qgen.int r 2 in
  let out = ref b in
  for _ = 1 to mutations do
    let b = !out in
    let len = Bytes.length b in
    if len > 0 then
      match Qgen.int r 3 with
      | 0 ->
          (* flip a byte *)
          Bytes.set b (Qgen.int r len) (Char.chr (Qgen.int r 256))
      | 1 ->
          (* delete a byte *)
          let i = Qgen.int r len in
          out := Bytes.cat (Bytes.sub b 0 i) (Bytes.sub b (i + 1) (len - i - 1))
      | _ ->
          (* insert a byte *)
          let i = Qgen.int r (len + 1) in
          let c = Bytes.make 1 (Char.chr (Qgen.int r 256)) in
          out := Bytes.cat (Bytes.sub b 0 i) (Bytes.cat c (Bytes.sub b i (len - i)))
  done;
  Bytes.to_string !out

let test_fuzz_mutations () =
  let t = mem_server () in
  Qgen.run ~count:120
    ~print:(fun s -> Printf.sprintf "%S" s)
    ~gen:(fun r -> mutate r (Qgen.choose r fuzz_templates))
    "mutated requests always get a framed JSON response"
    (fun line ->
      (* Newlines in the mutation would be two frames on a real
         connection; the router sees single lines by construction. *)
      let line = String.concat " " (String.split_on_char '\n' line) in
      let reply = Server.handle_line t line in
      match Json.parse reply with
      | Json.Obj fields ->
          if not (List.mem_assoc "ok" fields) then failwith "response lacks ok field";
          if String.contains reply '\n' then failwith "response not single-line"
      | _ -> failwith "response not an object")

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "tf_serve"
    [
      ( "protocol",
        [
          quick "roundtrip" test_protocol_roundtrip;
          quick "rejects malformed" test_protocol_rejects;
        ] );
      ( "routing",
        [
          quick "handle_line is total" test_handle_line_total;
          quick "metrics endpoint" test_metrics_endpoint;
        ] );
      ( "wire json",
        [
          quick "strict number grammar" test_strict_numbers;
          quick "unicode escapes" test_unicode_escapes;
          quick "int fields range-checked" test_int_fields_range_checked;
        ] );
      ( "differential",
        [
          quick "schedule vs eval_doc" test_differential_schedule;
          quick "explain vs explain_doc" test_differential_explain;
          quick "decode vs decode_doc" test_differential_decode;
          quick "daemon vs CLI binary" test_differential_cli_binary;
          quick "explain: daemon vs CLI binary" test_differential_cli_explain;
          quick "decode: daemon vs CLI binary" test_differential_cli_decode;
          quick "eval searches once" test_cli_eval_searches_once;
          quick "eval --sim-trace prices once" test_cli_eval_sim_trace_prices_once;
          quick "decode --sim-trace prices once" test_cli_decode_sim_trace_prices_once;
          quick "CLI validation matches the daemon" test_cli_validation_matches_daemon;
        ] );
      ( "cache",
        [
          quick "concurrent clients, one search" test_concurrent_single_flight;
          quick "restart rehydrates from disk" test_restart_rehydration;
          quick "wrong-schema entry is a miss" test_disk_wrong_schema;
          quick "truncated entries are misses" test_disk_truncated_entries;
          quick "corrupt current entries are misses" test_disk_corrupt_current_entries;
          quick "a /1 entry, whole or cut, is a miss" test_disk_v1_entries;
          quick "decode: default strategies key as the default" test_decode_default_strategies;
        ] );
      ("bucketing", [ quick "off-grid interpolation" test_bucketing ]);
      ( "sockets",
        [
          quick "round trip and shutdown" test_socket_round_trip;
          quick "pipelined requests in one write" test_socket_pipelined;
          quick "byte-wise, CRLF, empty and unterminated lines" test_socket_framing;
          quick "oversize line: one error, then close" test_socket_oversize_line;
          quick "responses over 64 KiB arrive whole" test_socket_large_response;
        ] );
      ("fuzz", [ quick "mutations never crash" test_fuzz_mutations ]);
    ]
