(* The repository benchmark driver.  See BENCHMARK.json for the
   workloads, the metrics and which layer should move which metric.

     perfbench.exe --cli PATH --workload W --seed N --seconds S --trace 0|1

   prints one diagnostics line and then, last, the result object
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones, measured untraced; with --trace 1
   they are the per-layer ones, from daemon counters and from replays of
   the same request stream in a child process (see Replay, Sim). *)

module Json = Tf_experiments.Export.Json
module J = Tf_report.Json_read
module Traffic = Tf_serving.Traffic

(* --- arguments ------------------------------------------------------------ *)

let cli = ref ""
let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let child = ref ""
let input = ref ""
let output = ref ""
let trace_file = ref ""
let traced = ref false
let setup_only = ref false
let max_sims = ref max_int
let daemon_cpu = ref (-1)

let specs =
  [
    ("--cli", Arg.Set_string cli, "PATH transfusion_cli.exe to launch as the daemon");
    ("--daemon-cpu", Arg.Set_int daemon_cpu, "N pin the daemon to this core (taskset)");
    ("--workload", Arg.Set_string workload, "NAME serve-hot | schedule-cold | serve-churn | simulate");
    ("--seed", Arg.Set_int seed, "N workload seed");
    ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or per-layer metrics");
    ("--child", Arg.Set_string child, "replay|simulate (internal)");
    ("--input", Arg.Set_string input, "FILE (internal)");
    ("--output", Arg.Set_string output, "FILE (internal)");
    ("--trace-file", Arg.Set_string trace_file, "FILE (internal)");
    ("--traced", Arg.Set traced, " (internal)");
    ("--setup-only", Arg.Set setup_only, " (internal)");
    ("--max-sims", Arg.Set_int max_sims, "N (internal)");
  ]

(* --- request streams ---------------------------------------------------- *)

type key = { arch : string; model : string; seq : int; batch : int; iterations : int }

let no_key = { arch = ""; model = ""; seq = 0; batch = 0; iterations = 0 }

let key_name k = Printf.sprintf "%s/%s/%d/%d/%d" k.arch k.model k.seq k.batch k.iterations

let line_of ~id k =
  Printf.sprintf
    "{\"op\":\"schedule\",\"id\":%s,\"arch\":\"%s\",\"model\":\"%s\",\"seq\":%d,\"batch\":%d,\"iterations\":%d}"
    id k.arch k.model k.seq k.batch k.iterations

let setup_line i k = line_of ~id:(Printf.sprintf "\"%s\"" (Replay.setup_id i)) k
let measured_line i k = line_of ~id:(string_of_int i) k

let grid_keys archs models seqs batches iterations =
  List.concat_map
    (fun arch ->
      List.concat_map
        (fun model ->
          List.concat_map
            (fun seq -> List.map (fun batch -> { arch; model; seq; batch; iterations }) batches)
            seqs)
        models)
    archs

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = min i (int_of_float (Traffic.uniform rng *. float_of_int (i + 1))) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let pick rng a = a.(min (Array.length a - 1) (int_of_float (Traffic.uniform rng *. float_of_int (Array.length a))))

type daemon_workload = {
  serve_args : dir:string -> string list;
  replay_config : dir:string -> Replay.config;
  setup_keys : key list;
  measured : Traffic.rng -> int -> key;  (** called for i = 0, 1, 2, ... in order *)
  depth : int;
  max_n : int;  (** cap on measured requests in a timed run *)
  trace_n : int;  (** measured requests in a traced run *)
  known : bool;  (** every measured key was answered during set-up *)
  windowed : bool;  (** report medians over the phase's 0.5 s windows *)
  setups : int;  (** set-ups per timed run; [setup_s] is their median *)
}

(* serve-hot: 32 keys computed at the default budget, then uniform draws
   over them with 8 requests in flight — the per-request path alone. *)
let hot_keys =
  grid_keys [ "cloud"; "edge" ] [ "BERT"; "TrXL"; "T5"; "XLM" ] [ 4096; 16384 ] [ 1; 64 ] 200

let serve_hot =
  let keys = Array.of_list hot_keys in
  {
    serve_args = (fun ~dir -> [ "--access-log"; Filename.concat dir "access.log" ]);
    replay_config =
      (fun ~dir ->
        { Replay.cache_entries = 1024; grid = 0; disk = None; access_log = Some (Filename.concat dir "replay-access.log") });
    setup_keys = hot_keys;
    measured = (fun rng _ -> pick rng keys);
    depth = 8;
    max_n = max_int;
    trace_n = 10_000;
    known = true;
    windowed = true;
    setups = 3;
  }

(* schedule-cold: distinct keys, one in flight, each a full search. *)
let cold_universe =
  Array.of_list
    (grid_keys
       [ "cloud"; "edge"; "edge_32"; "edge_64" ]
       [ "BERT"; "TrXL"; "T5"; "XLM"; "Llama3" ]
       [ 2048; 4096; 8192; 16384; 32768; 65536 ]
       [ 1; 2; 8; 32; 64 ] 200)

let schedule_cold =
  let order = ref [||] in
  {
    serve_args = (fun ~dir -> [ "--cache-dir"; Filename.concat dir "cache" ]);
    replay_config =
      (fun ~dir ->
        { Replay.cache_entries = 1024; grid = 0; disk = Some (Filename.concat dir "replay-cache"); access_log = None });
    (* Outside the measured set: no measured seq is 1024. *)
    setup_keys =
      List.map
        (fun (arch, model, batch) -> { arch; model; seq = 1024; batch; iterations = 200 })
        [ ("cloud", "BERT", 1); ("edge", "Llama3", 8); ("edge_64", "T5", 64);
          ("edge_32", "XLM", 2); ("cloud", "TrXL", 32); ("edge", "BERT", 64) ];
    measured =
      (fun rng i ->
        if i = 0 then order := shuffle rng cold_universe;
        !order.(i));
    depth = 1;
    max_n = Array.length cold_universe;
    trace_n = 40;
    known = false;
    windowed = false;
    (* Its set-up is short, so more samples steady the median. *)
    setups = 5;
  }

(* serve-churn: 64 on-grid keys behind a 16-entry memory tier, all on
   disk after set-up; Zipf(1.1) draws, plus 3% of requests at four fixed
   off-grid lengths (bucket interpolation, band-certificate memo).  Eight
   in flight, like serve-hot: with one, the two processes waking each
   other on every request swamp the cache's own costs. *)
let churn_grid = 1024
let churn_entries = 16
let churn_offgrid_share = 0.03

let churn_keys =
  grid_keys [ "cloud"; "edge" ] [ "BERT"; "TrXL"; "T5"; "XLM" ]
    (List.init 8 (fun k -> (k + 1) * churn_grid))
    [ 8 ] 5

let churn_offgrid =
  List.map
    (fun (arch, model, seq) -> { arch; model; seq; batch = 8; iterations = 5 })
    [ ("cloud", "BERT", 2348); ("edge", "T5", 5820); ("cloud", "XLM", 6244); ("edge", "TrXL", 3672) ]

let serve_churn =
  let ranked = ref [||] in
  let offgrid = Array.of_list churn_offgrid in
  let cdf =
    let w = Array.init (List.length churn_keys) (fun r -> 1. /. (float_of_int (r + 1) ** 1.1)) in
    let total = Array.fold_left ( +. ) 0. w in
    let acc = ref 0. in
    Array.map (fun x -> acc := !acc +. (x /. total); !acc) w
  in
  let zipf rng =
    let u = Traffic.uniform rng in
    let rec search lo hi = if lo >= hi then lo else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) >= u then search lo mid else search (mid + 1) hi
    in
    search 0 (Array.length cdf - 1)
  in
  {
    serve_args =
      (fun ~dir ->
        [ "--cache-dir"; Filename.concat dir "cache"; "--cache-entries"; string_of_int churn_entries;
          "--grid"; string_of_int churn_grid ]);
    replay_config =
      (fun ~dir ->
        { Replay.cache_entries = churn_entries; grid = churn_grid;
          disk = Some (Filename.concat dir "replay-cache"); access_log = None });
    setup_keys = churn_keys @ churn_offgrid;
    measured =
      (fun rng i ->
        if i = 0 then ranked := shuffle rng (Array.of_list churn_keys);
        if Traffic.uniform rng <= churn_offgrid_share then pick rng offgrid else !ranked.(zipf rng));
    depth = 8;
    max_n = max_int;
    trace_n = 10_000;
    known = true;
    windowed = true;
    setups = 3;
  }

(* Request-class bands of serve-churn, as shares of cache lookups in the
   measured phase: the mix of memory hits, disk hits and computes that
   the percentiles are taken over must not drift between runs. *)
let churn_memory_band = (0.55, 0.85)
let churn_disk_band = (0.15, 0.45)

(* --- output helpers -------------------------------------------------------- *)

let metric_unit name =
  if String.ends_with ~suffix:"_us" name || String.ends_with ~suffix:"_us_per_req" name then "us"
  else if String.ends_with ~suffix:"_ms" name then "ms"
  else if String.ends_with ~suffix:"_s" name then "s"
  else if String.ends_with ~suffix:"_rps" name then "1/s"
  else if String.ends_with ~suffix:"_mb" name then "MB"
  else if String.ends_with ~suffix:"_ratio" name || String.ends_with ~suffix:"_share" name then "ratio"
  else "count"

let num = function J.Num f -> f | _ -> 0.

let print_result ~correct ~attempted ~failed ~metrics ~diagnostics =
  print_endline (Json.to_line (Json.Obj diagnostics));
  print_endline
    (Json.to_line
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, v) ->
                     (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str (metric_unit name)) ]))
                   metrics) );
          ]))

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let run_dir name =
  let root = ".perfbench" in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat root name in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  dir

let self_exe = Sys.executable_name

(* Run this executable as a child in one of its internal modes and wait. *)
let run_child argv ~log =
  let pid = Daemon.spawn ~prog:self_exe ~argv ~log () in
  Daemon.reap pid;
  prerr_string (Host.read_file log)

(* The measured phase in windows between consecutive load-generator
   ticks: per window, completions per second, the sorted latencies (ns)
   and the daemon's CPU ns per completed request. *)
type window = { rate : float; lats : float array; cpu_ns_per_req : float }

let windows_of (run : Daemon.run) =
  let ticks = run.Daemon.ticks in
  List.filter_map
    (fun j ->
      let (a, cpu_a), (b, cpu_b) = (ticks.(j), ticks.(j + 1)) in
      let lats = ref [] in
      Array.iteri (fun i t -> if t > a && t <= b then lats := run.Daemon.lat_ns.(i) :: !lats) run.Daemon.done_at;
      let n = List.length !lats in
      if n = 0 then None
      else
        Some { rate = float_of_int n /. (b -. a); lats = Host.sorted_of_list !lats;
               cpu_ns_per_req = (cpu_b -. cpu_a) /. float_of_int n })
    (List.init (Array.length ticks - 1) Fun.id)

(* --- daemon workloads --------------------------------------------------- *)

let payload_of line = Tf_serve.Protocol.result_of_line line

let schema_ok k payload =
  match J.parse payload with
  | doc ->
      let str f = match J.find f doc with Some (J.Str s) -> s | _ -> "" in
      let int f = match J.find f doc with Some (J.Num x) -> int_of_float x | _ -> -1 in
      (match J.find "schema" doc with
      | Some (J.Str "transfusion.eval/1") ->
          str "arch" = k.arch && str "model" = k.model && int "seq_len" = k.seq && int "batch" = k.batch
          && J.float_opt (J.member "total_s" (J.member "latency" doc)) <> None
      | Some (J.Str "transfusion.eval-interp/1") -> true
      | _ -> false)
  | exception _ -> false

let in_process_payload k =
  let arch = Option.get (Tf_arch.Presets.by_name k.arch) in
  let model = Option.get (Tf_workloads.Presets.by_name k.model) in
  let w = Tf_workloads.Workload.v ~batch:k.batch model ~seq_len:k.seq in
  Json.to_line (Tf_serve.Api.eval_doc ~iterations:k.iterations arch w Transfusion.Strategies.Transfusion)

let run_daemon_workload name (wl : daemon_workload) =
  let dir = run_dir name in
  let socket = Filename.concat dir "d.sock" in
  let traced_run = !trace = 1 in
  let checks = ref [] in
  let check name ok = checks := (name, ok) :: !checks in
  (* Set-up: launch, then the warm-up requests, one at a time.  Timed
     runs set up several times on fresh state and report the median. *)
  let setups = if traced_run then 1 else wl.setups in
  let payloads = Hashtbl.create 64 in
  let setup_times = ref [] in
  let rec setup k =
    let sub = Filename.concat dir (Printf.sprintf "setup-%d" k) in
    Unix.mkdir sub 0o755;
    let t0 = Host.now_s () in
    let d =
      Daemon.start
        ?cpu:(if !daemon_cpu >= 0 then Some !daemon_cpu else None)
        ~cli:!cli ~socket ~args:(wl.serve_args ~dir:sub) ~log:(Filename.concat sub "daemon.log") ()
    in
    let ok = ref true in
    List.iteri
      (fun i key ->
        let resp = Daemon.request d (setup_line i key) in
        match payload_of resp with
        | Some p when schema_ok key p -> (
            match Hashtbl.find_opt payloads (key_name key) with
            | None -> Hashtbl.replace payloads (key_name key) p
            | Some q -> if p <> q then ok := false)
        | _ -> ok := false)
      wl.setup_keys;
    setup_times := (Host.now_s () -. t0) :: !setup_times;
    check (Printf.sprintf "setup_%d_answers" k) !ok;
    if k < setups then begin
      Daemon.shutdown d;
      setup (k + 1)
    end
    else (d, sub)
  in
  let d, sub = setup 1 in
  (* Measured phase. *)
  let rng = Traffic.rng_of_seed !seed in
  let keys = ref [||] and nkeys = ref 0 in
  let key_at i =
    if i = !nkeys then begin
      if !nkeys = Array.length !keys then begin
        let a = Array.make (max 1024 (2 * !nkeys)) no_key in
        Array.blit !keys 0 a 0 !nkeys;
        keys := a
      end;
      !keys.(i) <- wl.measured rng i;
      incr nkeys
    end;
    !keys.(i)
  in
  let line i = measured_line i (key_at i) ^ "\n" in
  let digests = ref [] and cold_payloads = ref [] in
  let check_resp i resp =
    let k = !keys.(i) in
    if traced_run then digests := Digest.to_hex (Digest.string resp) :: !digests;
    if wl.known then
      match Hashtbl.find_opt payloads (key_name k) with
      | Some p -> resp = Tf_serve.Protocol.ok_line ~id:(Json.Int i) ~op:"schedule" p
      | None -> false
    else
      match payload_of resp with
      | Some p ->
          cold_payloads := (k, p) :: !cold_payloads;
          String.starts_with ~prefix:(Printf.sprintf "{\"schema\":\"transfusion.serve/1\",\"ok\":true,\"op\":\"schedule\",\"id\":%d," i) resp
          && schema_ok k p
      | None -> false
  in
  let m0 = Daemon.metrics d in
  let self0 = Host.self_cpu_s () and steal0 = Host.host_jiffies () in
  let depth = if traced_run then 1 else wl.depth in
  let max_n = if traced_run then wl.trace_n else wl.max_n in
  let run =
    Daemon.drive d ~depth ~seconds:!seconds ~max_n ~line ~check:check_resp ~timeout:60. ~tick_s:0.5
      ~sample:(fun () -> Host.task_cpu_ns d.Daemon.pid)
  in
  let self1 = Host.self_cpu_s () and steal1 = Host.host_jiffies () in
  let daemon_cpu_ns =
    let ticks = run.Daemon.ticks in
    snd ticks.(Array.length ticks - 1) -. snd ticks.(0)
  in
  let m1 = Daemon.metrics d in
  let rss = Host.peak_rss_mb d.Daemon.pid in
  Daemon.shutdown d;
  let n = run.Daemon.completed in
  let delta name = Daemon.delta m0 m1 name in
  let hits = delta "memo.serve.schedule.hits_total" and misses = delta "memo.serve.schedule.misses_total" in
  let disk_hits = delta "serve.cache.disk_hits_total" and computed = delta "serve.cache.disk_misses_total" in
  let lookups = hits +. misses in
  let share x = if lookups > 0. then x /. lookups else 0. in
  check "responses" (run.Daemon.failed = 0 && n > 0);
  (* Workload shape, from the daemon's own counters. *)
  let bands_ok = ref true in
  (match name with
  | "serve-hot" -> check "hot_all_memory_hits" (misses = 0. && hits = float_of_int n)
  | "schedule-cold" ->
      check "cold_one_miss_per_request" (misses = float_of_int n && computed = float_of_int n);
      check "cold_one_store_per_request" (delta "serve.cache.disk_stores_total" = float_of_int n)
  | _ ->
      let inside (lo, hi) x = x >= lo && x <= hi in
      bands_ok :=
        computed = 0. && inside churn_memory_band (share hits) && inside churn_disk_band (share disk_hits);
      check "churn_class_bands" !bands_ok);
  (* A seeded sample of answers must equal a fresh in-process evaluation. *)
  let sample_rng = Traffic.rng_of_seed (!seed + 7919) in
  let sample =
    if wl.known then
      List.init 2 (fun _ ->
          let k = pick sample_rng (Array.of_list (List.filter (fun k -> k.seq mod churn_grid = 0) wl.setup_keys)) in
          (k, Hashtbl.find payloads (key_name k)))
    else List.filteri (fun i _ -> i < 2) !cold_payloads
  in
  check "in_process_identical" (List.for_all (fun (k, p) -> in_process_payload k = p) sample);
  let all_payloads =
    List.sort compare (Hashtbl.fold (fun k p acc -> (k, p) :: acc) payloads [] @ List.map (fun (k, p) -> (key_name k, p)) !cold_payloads)
  in
  let digest = Digest.to_hex (Digest.string (String.concat "\n" (List.map snd all_payloads))) in
  let diagnostics =
    [
      ("workload", Json.Str name);
      ("seed", Json.Int !seed);
      ("trace", Json.Int !trace);
      ("transfusion_jobs", Json.Str (Option.value ~default:"" (Sys.getenv_opt "TRANSFUSION_JOBS")));
      ("host_steal_share", Json.Num (Host.steal_share steal0 steal1));
      ("driver_cpu_s", Json.Num (self1 -. self0));
      ("daemon_cpu_s", Json.Num (daemon_cpu_ns /. 1e9));
      ("depth", Json.Int depth);
      ("samples", Json.Int n);
      ("setup_s_samples", Json.List (List.rev_map (fun t -> Json.Num t) !setup_times));
      ("memory_share", Json.Num (share hits));
      ("disk_share", Json.Num (share disk_hits));
      ("computed_share", Json.Num (share computed));
      ("payload_digest", Json.Str digest);
      ( "counts",
        Json.Obj (List.map (fun name -> (name, Json.Num (delta name))) Replay.compared_counters) );
      ("checks", Json.Obj (List.rev_map (fun (k, v) -> (k, Json.Bool v)) !checks));
    ]
  in
  let per_req x = if n > 0 then x /. float_of_int n else 0. in
  if not traced_run then begin
    let lat_sorted = Host.sorted_of_list (Array.to_list run.Daemon.lat_ns) in
    let ws = windows_of run in
    let thr, p50, p90, cpu_us =
      if wl.windowed then
        ( Host.median (List.map (fun w -> w.rate) ws),
          Host.median (List.map (fun w -> Host.percentile w.lats 50.) ws),
          Host.median (List.map (fun w -> Host.percentile w.lats 90.) ws),
          Host.median (List.map (fun w -> w.cpu_ns_per_req) ws) /. 1e3 )
      else
        ( float_of_int n /. (run.Daemon.t1 -. run.Daemon.t0),
          Host.percentile lat_sorted 50.,
          Host.percentile lat_sorted 90.,
          per_req daemon_cpu_ns /. 1e3 )
    in
    let latency =
      (* No percentile from a run whose class shares left their bands. *)
      if !bands_ok then [ ("latency_p50_us", p50 /. 1e3); ("latency_p90_us", p90 /. 1e3) ] else []
    in
    let correct = List.for_all snd !checks in
    print_result ~correct ~attempted:run.Daemon.sent ~failed:run.Daemon.failed
      ~diagnostics:
        (diagnostics
        @ [
            ("latency_p99_us", Json.Num (Host.percentile lat_sorted 99. /. 1e3));
            ( "windows",
              Json.List
                (List.map
                   (fun w ->
                     Json.List
                       [ Json.Num w.rate; Json.Num (Host.percentile w.lats 50. /. 1e3);
                         Json.Num (Host.percentile w.lats 90. /. 1e3); Json.Num (w.cpu_ns_per_req /. 1e3) ])
                   ws) );
          ])
      ~metrics:
        ([ ("setup_s", Host.median !setup_times); ("throughput_rps", thr) ]
        @ latency
        @ [ ("cpu_us_per_req", cpu_us); ("peak_rss_mb", rss) ])
  end
  else begin
    (* Replay the same stream in process, untraced then traced, each in
       a fresh child process. *)
    let stream = Filename.concat dir "stream.ndjson" in
    let measured = List.init n (fun i -> measured_line i !keys.(i)) in
    Replay.write_stream stream ~config:(wl.replay_config ~dir:sub)
      ~setup:(List.mapi setup_line wl.setup_keys) ~measured;
    let replay ~traced_child tag =
      let out = Filename.concat dir (tag ^ ".json") in
      (* Each replay starts from an empty disk tier, as the daemon did. *)
      let cfg = wl.replay_config ~dir:sub in
      Option.iter rm_rf cfg.Replay.disk;
      run_child ~log:(Filename.concat dir (tag ^ ".log"))
        ([ "--child"; "replay"; "--input"; stream; "--output"; out;
           "--trace-file"; Filename.concat dir "trace.json" ]
        @ if traced_child then [ "--traced" ] else []);
      J.parse_file out
    in
    let plain = replay ~traced_child:false "replay-plain" in
    let spanned = replay ~traced_child:true "replay-traced" in
    let daemon_digests = List.rev !digests in
    let digests_of doc = List.map J.to_string (J.to_list (J.member "digests" doc)) in
    check "replay_identical" (digests_of plain = daemon_digests && digests_of spanned = daemon_digests);
    let counts doc = match J.member "counts" doc with J.Obj kvs -> List.map (fun (k, v) -> (k, num v)) kvs | _ -> [] in
    let mismatches =
      List.filter
        (fun (name, v) -> v <> delta name || List.assoc_opt name (counts spanned) <> Some v)
        (counts plain)
    in
    List.iter (fun (name, _) -> Printf.eprintf "determinism: %s differs between daemon and replay\n" name) mismatches;
    let times doc = List.map num (J.to_list (J.member "times_us" doc)) in
    let plain_p50 = Host.median (times plain) in
    let socket_p50 = Host.percentile (Host.sorted_of_list (Array.to_list run.Daemon.lat_ns)) 50. /. 1e3 in
    let sum l = List.fold_left ( +. ) 0. l in
    let field f = num (J.member f spanned) in
    let ratio a b = if b > 0. then a /. b else 0. in
    let correct = List.for_all snd !checks && mismatches = [] in
    Printf.eprintf "layers + residual = %.3f us, in-process requests = %.3f us\n%!" (field "layers_sum_us")
      (field "requests_total_us");
    print_result ~correct ~attempted:run.Daemon.sent ~failed:run.Daemon.failed ~diagnostics
      ~metrics:
        [
          ("server.wire_us", socket_p50 -. plain_p50);
          ("server.handle_us", field "server.handle_us");
          ("server.residual_share", field "server.residual_share");
          ("protocol.parse_us", field "protocol.parse_us");
          ("protocol.frame_us", field "protocol.frame_us");
          ("cache.key_us", field "cache.key_us");
          ("cache.lookup_memory_us", field "cache.lookup_memory_us");
          ("cache.lookup_disk_us", field "cache.lookup_disk_us");
          ("cache.memory_hits", hits);
          ("cache.disk_hits", disk_hits);
          ("cache.computed", computed);
          ("cache.evictions", delta "memo.serve.schedule.evictions_total");
          ("cache.disk_errors", delta "serve.cache.disk_errors_total");
          ("cache.memory_hit_ratio", share hits);
          ("access_log.write_us", field "access_log.write_us");
          ("api.render_us", field "api.render_us");
          ("api.interp_us", field "api.interp_us");
          ("exp_common.evaluate_ms", field "exp_common.evaluate_ms");
          ("exp_common.summary_misses", delta "memo.exp_common.summary.misses_total");
          ("tileseek.warm_seeds", delta "tileseek.warm_seeds_total");
          ("strategies.evaluate_ms", field "strategies.evaluate_ms");
          ("strategies.scores", delta "strategies.eval_scores_total");
          ("strategies.slice_builds", delta "strategies.eval_slice_builds_total");
          ("strategies.dpipe_memo_misses", delta "memo.strategies.dpipe.misses_total");
          ("tileseek.search_ms", field "tileseek.search_ms");
          ("tileseek.searches", delta "tileseek.searches_total");
          ("mcts.rollouts", delta "mcts.rollouts_total");
          ("tileseek.cost_evals", delta "tileseek.cost_memo_misses_total");
          ( "tileseek.cost_memo_hit_ratio",
            ratio (delta "tileseek.cost_memo_hits_total")
              (delta "tileseek.cost_memo_hits_total" +. delta "tileseek.cost_memo_misses_total") );
          ("dpipe.schedule_ms", field "dpipe.schedule_ms");
          ("dpipe.busy_ms", per_req (delta "dpipe.candidate_seconds" *. 1e3));
          ("dpipe.schedules", delta "dpipe.schedules_total");
          ("dpipe.candidates", delta "dpipe.candidates_total");
          ("dpipe.pruned", delta "dpipe.pruned_total");
          ("dpipe.prune_ratio", ratio (delta "dpipe.pruned_total") (delta "dpipe.candidates_total"));
          ("verify.certify_range_ms", field "verify.certify_range_ms");
          ("verify.band_cert_misses", Option.value ~default:0. (List.assoc_opt "memo.serve.band_cert.misses_total" m1));
          ("gc.alloc_words_per_req", per_req (delta "process.gc.allocated_words_total"));
          ("gc.minor_per_req", per_req (delta "process.gc.minor_collections_total"));
          ("gc.major_collections", delta "process.gc.major_collections_total");
          ("costs.fill_s", 0.);
          ("costs.computes", 0.);
          ("decode.evaluations", delta "decode.evaluations_total");
          ("decode.searches_saved", delta "decode.searches_saved_total");
          ("traffic.generate_us_per_req", 0.);
          ("simulator.run_us_per_req", 0.);
          ("simulator.steps", delta "serving.steps_total");
          ("simulator.preemptions", delta "serving.preemptions_total");
          ("trace.overhead_share", ratio (sum (times spanned) -. sum (times plain)) (sum (times plain)));
          ("determinism.mismatches", float_of_int (List.length mismatches));
        ]
  end

(* --- simulate -------------------------------------------------------------- *)

(* Launch a simulator process; set-up time runs from launch to its
   "ready" line. *)
let launch_sim dir tag extra =
  let out = Filename.concat dir (tag ^ ".json") in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = Host.now_s () in
  let pid =
    Daemon.spawn ~stdout:wr ~prog:self_exe ~log:(Filename.concat dir (tag ^ ".log"))
      ~argv:
        ([ "--child"; "simulate"; "--seed"; string_of_int !seed; "--seconds"; Printf.sprintf "%g" !seconds;
           "--output"; out; "--trace-file"; Filename.concat dir "trace.json" ]
        @ extra)
      ()
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let ready = try input_line ic = "ready" with End_of_file -> false in
  let setup_s = Host.now_s () -. t0 in
  close_in ic;
  Daemon.reap pid;
  prerr_string (Host.read_file (Filename.concat dir (tag ^ ".log")));
  if not ready then failwith ("simulator child failed; see " ^ Filename.concat dir (tag ^ ".log"));
  (setup_s, fun () -> J.parse_file out)

let run_simulate () =
  let dir = run_dir "simulate" in
  let steal0 = Host.host_jiffies () and self0 = Host.self_cpu_s () in
  let field doc f = num (J.member f doc) in
  let int_field doc f = int_of_float (field doc f) in
  let checks doc =
    [
      ("conservation_and_percentile_order", int_field doc "failed" = 0 && int_field doc "sims" > 0);
      ("costs_memoised", int_field doc "costs_computes" = int_field doc "costs_computes_setup"
                         && int_field doc "costs_computes_setup" = List.length Traffic.default_classes);
    ]
  in
  let diagnostics doc setup_times =
    [
      ("workload", Json.Str "simulate");
      ("seed", Json.Int !seed);
      ("trace", Json.Int !trace);
      ("transfusion_jobs", Json.Str (Option.value ~default:"" (Sys.getenv_opt "TRANSFUSION_JOBS")));
      ("host_steal_share", Json.Num (Host.steal_share steal0 (Host.host_jiffies ())));
      ("driver_cpu_s", Json.Num (Host.self_cpu_s () -. self0));
      ("samples", Json.Int (int_field doc "sims"));
      ("setup_s_samples", Json.List (List.map (fun t -> Json.Num t) setup_times));
      ("payload_digest", Json.Str (J.to_string (J.member "digest" doc)));
      ("checks", Json.Obj (List.map (fun (k, v) -> (k, Json.Bool v)) (checks doc)));
    ]
  in
  let attempted doc = int_field doc "requests" in
  let failed doc = int_field doc "failed" * Sim.requests_per_trace in
  if !trace = 0 then begin
    (* Five set-ups, the last of which goes on to the measured phase. *)
    let extra = List.init 4 (fun i -> fst (launch_sim dir (Printf.sprintf "setup-%d" (i + 1)) [ "--setup-only" ])) in
    let s_last, result = launch_sim dir "measure" [] in
    let setup_times = extra @ [ s_last ] in
    let doc = result () in
    let sims = Host.sorted_of_list (List.map num (J.to_list (J.member "sim_us" doc))) in
    let requests = field doc "requests" in
    print_result
      ~correct:(List.for_all snd (checks doc))
      ~attempted:(attempted doc) ~failed:(failed doc)
      ~diagnostics:(diagnostics doc setup_times)
      ~metrics:
        [
          ("setup_s", Host.median setup_times);
          ("throughput_rps", requests /. field doc "wall_s");
          ("latency_p50_us", Host.percentile sims 50.);
          ("latency_p90_us", Host.percentile sims 90.);
          ("cpu_us_per_req", field doc "cpu_s" *. 1e6 /. requests);
          ("peak_rss_mb", field doc "peak_rss_mb");
        ]
  end
  else begin
    let _, plain = launch_sim dir "replay-plain" [ "--max-sims"; "200" ] in
    let _, spanned = launch_sim dir "replay-traced" [ "--max-sims"; "200"; "--traced" ] in
    let plain = plain () and spanned = spanned () in
    let same = J.member "digest" plain = J.member "digest" spanned && field plain "sims" = field spanned "sims" in
    let sum doc = List.fold_left ( +. ) 0. (List.map num (J.to_list (J.member "sim_us" doc))) in
    let requests = field spanned "requests" in
    let zero names = List.map (fun n -> (n, 0.)) names in
    print_result
      ~correct:(List.for_all snd (checks spanned) && same)
      ~attempted:(attempted spanned) ~failed:(failed spanned)
      ~diagnostics:(diagnostics spanned [])
      ~metrics:
        (zero
           [ "server.wire_us"; "server.handle_us"; "server.residual_share"; "protocol.parse_us";
             "protocol.frame_us"; "cache.key_us"; "cache.lookup_memory_us"; "cache.lookup_disk_us";
             "cache.memory_hits"; "cache.disk_hits"; "cache.computed"; "cache.evictions";
             "cache.disk_errors"; "cache.memory_hit_ratio"; "access_log.write_us"; "api.render_us";
             "api.interp_us"; "exp_common.evaluate_ms"; "exp_common.summary_misses";
             "tileseek.warm_seeds"; "strategies.evaluate_ms"; "strategies.scores";
             "strategies.slice_builds"; "strategies.dpipe_memo_misses"; "tileseek.search_ms";
             "tileseek.searches"; "mcts.rollouts"; "tileseek.cost_evals"; "tileseek.cost_memo_hit_ratio";
             "dpipe.schedule_ms"; "dpipe.busy_ms"; "dpipe.schedules"; "dpipe.candidates"; "dpipe.pruned";
             "dpipe.prune_ratio"; "verify.certify_range_ms"; "verify.band_cert_misses" ]
        @ [
            ("gc.alloc_words_per_req", field spanned "gc_alloc_words" /. requests);
            ("gc.minor_per_req", field spanned "gc_minor" /. requests);
            ("gc.major_collections", field spanned "gc_major");
            ("costs.fill_s", field plain "setup_s");
            ("costs.computes", field spanned "costs_computes");
            ("decode.evaluations", field spanned "decode.evaluations");
            ("decode.searches_saved", field spanned "decode.searches_saved");
            ("traffic.generate_us_per_req", field spanned "traffic.generate_us_per_req");
            ("simulator.run_us_per_req", field spanned "simulator.run_us_per_req");
            ("simulator.steps", field spanned "simulator.steps");
            ("simulator.preemptions", field spanned "simulator.preemptions");
            ("trace.overhead_share", (sum spanned -. sum plain) /. sum plain);
            ("determinism.mismatches", if same then 0. else 1.);
          ])
  end

(* --- main ---------------------------------------------------------------- *)

let () =
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench.exe [options]";
  match !child with
  | "replay" -> Replay.child ~input:!input ~output:!output ~traced:!traced ~trace_file:!trace_file
  | "simulate" ->
      Sim.child ~seed:!seed ~seconds:!seconds ~max_sims:!max_sims ~output:!output ~traced:!traced
        ~setup_only:!setup_only ~trace_file:!trace_file
  | "" -> (
      if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace must be 0 or 1"; exit 2);
      if !seconds <= 0. then (prerr_endline "--seconds must be positive"; exit 2);
      let daemon wl =
        if not (Sys.file_exists !cli) then (prerr_endline ("no daemon executable at " ^ !cli); exit 2);
        run_daemon_workload !workload wl
      in
      match !workload with
      | "serve-hot" -> daemon serve_hot
      | "schedule-cold" -> daemon schedule_cold
      | "serve-churn" -> daemon serve_churn
      | "simulate" -> run_simulate ()
      | w -> prerr_endline ("unknown workload " ^ w); exit 2)
  | c -> prerr_endline ("unknown child mode " ^ c); exit 2
