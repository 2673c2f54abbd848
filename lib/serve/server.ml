module Json = Tf_json
module Strategies = Transfusion.Strategies

type config = {
  socket_path : string option;
  tcp_port : int option;
  cache_dir : string option;
  cache_entries : int;
  grid : int;
  access_log : string option;
  access_log_max_bytes : int;
  access_log_max_files : int;
  sample_interval_s : float;
  window : int;
}

let default_config =
  {
    socket_path = None;
    tcp_port = None;
    cache_dir = None;
    cache_entries = 1024;
    grid = 0;
    access_log = None;
    access_log_max_bytes = 1 lsl 20;
    access_log_max_files = 4;
    sample_interval_s = 1.0;
    window = 120;
  }

(* Per-endpoint instrumentation.  The op set is closed — an
   attacker-chosen op name must not mint registry entries (the registry
   is process-global and never evicts, so that would be exactly the
   unbounded-growth bug class this server is hardened against). *)
let ops = [ "ping"; "schedule"; "decode"; "explain"; "metrics"; "stats"; "shutdown" ]

type op_metrics = { requests : Tf_obs.Counter.t; failures : Tf_obs.Counter.t; latency : Tf_obs.Histogram.t }

type t = {
  config : config;
  cache : Cache.t;
  cert_memo : (string * Tf_workloads.Model.t * int * int * int, bool) Tf_parallel.Memo.t;
  mutable stopping : bool;
  connections : Tf_obs.Gauge.t;
  bad_requests : Tf_obs.Counter.t;
  per_op : (string * op_metrics) list;
  telemetry : Telemetry.t;
  access : Access_log.t option;
  req_counter : int Atomic.t;
}

let create config =
  (* The metrics endpoint is part of the protocol, so the registry is
     always live in a server process. *)
  Tf_obs.set_enabled true;
  let telemetry =
    Telemetry.create ~window:config.window ~interval_s:config.sample_interval_s ()
  in
  let access =
    Option.map
      (fun path ->
        Access_log.create ~max_bytes:config.access_log_max_bytes
          ~max_files:config.access_log_max_files path)
      config.access_log
  in
  (* Records buffer on the request path; the sampler tick makes them
     durable once per interval. *)
  (match access with
  | Some log -> Telemetry.on_tick telemetry (fun () -> Access_log.flush log)
  | None -> ());
  {
    config;
    cache = Cache.create ~max_entries:config.cache_entries ?dir:config.cache_dir ();
    cert_memo = Tf_parallel.Memo.create ~name:"serve.band_cert" ~capacity:256 ();
    stopping = false;
    connections =
      Tf_obs.Gauge.create ~help:"currently open client connections" "serve.connections_active";
    bad_requests =
      Tf_obs.Counter.create ~help:"lines rejected before reaching an endpoint"
        "serve.bad_requests_total";
    telemetry;
    access;
    req_counter = Atomic.make 0;
    per_op =
      List.map
        (fun op ->
          ( op,
            {
              requests =
                Tf_obs.Counter.create ~help:"requests handled"
                  (Printf.sprintf "serve.%s.requests_total" op);
              failures =
                Tf_obs.Counter.create ~help:"requests answered with ok:false"
                  (Printf.sprintf "serve.%s.failures_total" op);
              latency =
                Tf_obs.Histogram.create ~help:"request handling latency (s)"
                  (Printf.sprintf "serve.%s.latency_seconds" op);
            } ))
        ops;
  }

let stop t = t.stopping <- true
let telemetry t = t.telemetry
let access_log t = t.access

(* --- endpoints ------------------------------------------------------- *)

(* Whether the affine cost model is certified over the bucket band
   [lo..hi] — the {!Tf_analysis.Range_cert} grid {lo, hi}.  Memoised per
   (arch, model, batch, band); a refusal (or a certifier exception) is
   an honest [false] in the response, never a request failure. *)
let band_certified t arch (model : Tf_workloads.Model.t) ~batch ~lo ~hi =
  let key = (Strategies.Private.arch_fingerprint arch, model, batch, lo, hi) in
  Tf_parallel.Memo.find_or_compute t.cert_memo key (fun () ->
      match Tf_analysis.Verify.certify_range ~batch arch model ~lo ~hi ~step:(hi - lo) () with
      | cert -> cert.Tf_analysis.Range_cert.certified
      | exception _ -> false)

(* Per-request correlation context, filled by the cache's report
   callback so the access log can say which key a request resolved to
   and which tier answered. *)
type reqctx = { mutable fp : string option; mutable tier : Cache.tier option }

let reporter ctx ~fp ~tier =
  ctx.fp <- Some fp;
  ctx.tier <- Some tier

let schedule_payload t ctx body =
  let req = Request.of_json Request.Schedule.spec body in
  let compute_at (r : Request.Schedule.t) =
    Cache.find_or_compute ~report:(reporter ctx) t.cache ~key_json:(Request.Schedule.key_json r)
      (fun () -> Json.to_line (Api.result_json (Api.schedule r)))
  in
  let seq = req.seq in
  let grid = t.config.grid in
  if grid <= 0 || seq mod grid = 0 then compute_at req
  else begin
    (* Off-grid length: answer with the nearest bucket's exact schedule
       and an affine interpolation of the scalar costs between the two
       bracketing buckets (below the first bucket this extrapolates from
       the [grid, 2*grid] band). *)
    let lo = max grid (seq / grid * grid) in
    let hi = lo + grid in
    let p_lo = compute_at { req with seq = lo } and p_hi = compute_at { req with seq = hi } in
    let lat_lo, en_lo = Api.payload_costs p_lo in
    let lat_hi, en_hi = Api.payload_costs p_hi in
    let f = float_of_int (seq - lo) /. float_of_int (hi - lo) in
    let lerp a b = a +. ((b -. a) *. f) in
    let bucket_seq, bucket = if hi - seq < seq - lo then (hi, p_hi) else (lo, p_lo) in
    let interpolation =
      Json.to_line
        (Json.Obj
           [
             ("seq_len", Json.Int seq);
             ("lo", Json.Int lo);
             ("hi", Json.Int hi);
             ("bucket_seq_len", Json.Int bucket_seq);
             ("latency_total_s", Json.Num (lerp lat_lo lat_hi));
             ("energy_total_pj", Json.Num (lerp en_lo en_hi));
             ( "certified",
               Json.Bool (band_certified t req.arch req.model ~batch:req.batch ~lo ~hi) );
           ])
    in
    Printf.sprintf "{\"schema\":\"transfusion.eval-interp/1\",\"bucket\":%s,\"interpolation\":%s}"
      bucket interpolation
  end

let explain_payload t ctx body =
  let req = Request.of_json Request.Explain.spec body in
  Cache.find_or_compute ~report:(reporter ctx) t.cache ~key_json:(Request.Explain.key_json req)
    (fun () -> Json.to_line (Tf_report.Explain.to_json (Api.explain req)))

let decode_payload t ctx body =
  let req = Request.of_json Request.Decode.spec body in
  Cache.find_or_compute ~report:(reporter ctx) t.cache ~key_json:(Request.Decode.key_json req)
    (fun () -> Json.to_line (Tf_experiments.Exp_generation.to_json (Api.decode req)))

let metrics_payload () =
  (* Refresh the process/GC gauges so a scrape never reads stale
     runtime health. *)
  Tf_obs.Process.sample ();
  Json.to_line
    (Json.Obj
       [
         ("schema", Json.Str "transfusion.metrics/1");
         ("metrics", Telemetry.snapshot_json (Tf_obs.snapshot ()));
       ])

let metrics_text_payload () =
  Json.to_line
    (Json.Obj
       [
         ("schema", Json.Str "transfusion.metrics-text/1");
         ("format", Json.Str "openmetrics");
         ("body", Json.Str (Telemetry.openmetrics ()));
       ])

let route t ctx (req : Protocol.request) =
  match req.Protocol.op with
  | "ping" -> Json.to_line (Json.Obj [ ("pong", Json.Bool true) ])
  | "schedule" -> schedule_payload t ctx req.Protocol.body
  | "explain" -> explain_payload t ctx req.Protocol.body
  | "decode" -> decode_payload t ctx req.Protocol.body
  | "metrics" -> (
      match Request.str_field req.Protocol.body "format" ~default:"json" with
      | "json" -> metrics_payload ()
      | "prometheus" | "openmetrics" -> metrics_text_payload ()
      | f -> Request.fail "unknown metrics format %S (json|prometheus|openmetrics)" f)
  | "stats" ->
      (* Sample on demand so a scrape reflects now, not the last tick. *)
      Telemetry.sample_now t.telemetry;
      Telemetry.stats_payload t.telemetry
  | "shutdown" ->
      stop t;
      Json.to_line (Json.Obj [ ("stopping", Json.Bool true) ])
  | op -> Request.fail "unknown op %S (%s)" op (String.concat "|" ops)

(* Decimal digits straight into the buffer — [string_of_int] would
   allocate a throwaway string per field on the access-log hot path. *)
let rec add_pos b n =
  if n >= 10 then add_pos b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (Char.code '0' + (n mod 10)))

let add_int b n = if n < 0 then Buffer.add_string b (string_of_int n) else add_pos b n

(* The router the connection loop (and the fuzz test) drives: one line
   in, one line out, never an exception — a malformed or hostile
   request must cost its sender an error response, not the daemon its
   life. *)
let handle_line t line =
  match Protocol.parse_request line with
  | exception Protocol.Bad_request msg ->
      Tf_obs.Counter.incr t.bad_requests;
      Protocol.error_line msg
  | exception e ->
      Tf_obs.Counter.incr t.bad_requests;
      Protocol.error_line (Printexc.to_string e)
  | req ->
      let m = List.assoc_opt req.Protocol.op t.per_op in
      (match m with Some m -> Tf_obs.Counter.incr m.requests | None -> Tf_obs.Counter.incr t.bad_requests);
      let id = req.Protocol.id in
      let op = req.Protocol.op in
      (* Correlation id: the client's scalar id when it sent one, else
         minted — every access-log record and trace span carries it. *)
      let rid =
        match id with
        | Json.Str s -> s
        | Json.Null -> Printf.sprintf "r%d" (Atomic.fetch_and_add t.req_counter 1)
        | scalar -> Json.to_line scalar
      in
      let ctx = { fp = None; tier = None } in
      let ok = ref true in
      let answer () =
        let routed () =
          match m with
          | None -> route t ctx req  (* unknown op: no span from attacker-chosen names *)
          | Some _ ->
              Tf_obs.Trace.with_span ~cat:"serve"
                ~args:[ ("request_id", rid); ("op", op) ]
                ("serve." ^ op)
                (fun () -> route t ctx req)
        in
        match routed () with
        | payload -> Protocol.ok_line ~id ~op payload
        | exception e ->
            ok := false;
            (match m with Some m -> Tf_obs.Counter.incr m.failures | None -> ());
            let msg =
              match e with
              | Protocol.Bad_request msg -> msg
              | Failure msg -> msg
              | Invalid_argument msg -> msg
              | Json.Bad_json msg -> msg
              | e -> Printexc.to_string e
            in
            Protocol.error_line ~id ~op msg
      in
      let t0 = Tf_obs.now_ns () in
      let resp = answer () in
      let t1 = Tf_obs.now_ns () in
      let dt_s = Int64.to_float (Int64.sub t1 t0) /. 1e9 in
      (match m with Some m -> Tf_obs.Histogram.observe m.latency dt_s | None -> ());
      (match t.access with
      | None -> ()
      | Some log ->
          (* Assembled by hand into the log's reused buffer rather
             than through Json.t/Printf: the record lands on every
             request, including the ~8us warm cache-hit path, where the
             generic serializer (or one large interpreted format
             string) alone costs double-digit percents — the bench
             gates the total telemetry tax at <= 5%.  Times are
             integers (epoch microseconds, latency nanoseconds) so no
             float formatting runs per request; only [rid] can carry
             client bytes needing escape — ops are from the closed set
             and fingerprints are hex. *)
          let ts_us = int_of_float (Unix.gettimeofday () *. 1e6) in
          let lat_ns = Int64.to_int (Int64.sub t1 t0) in
          Access_log.write_record log (fun b ->
              Buffer.add_string b "{\"schema\":\"transfusion.access/1\",\"ts_us\":";
              add_int b ts_us;
              Buffer.add_string b ",\"id\":";
              let id_safe =
                String.for_all (fun c -> c >= ' ' && c <> '"' && c <> '\\' && c <> '\x7f') rid
              in
              if id_safe then begin
                Buffer.add_char b '"';
                Buffer.add_string b rid;
                Buffer.add_char b '"'
              end
              else Buffer.add_string b (Json.to_line (Json.Str rid));
              Buffer.add_string b ",\"op\":";
              (match m with
              | Some _ ->
                  Buffer.add_char b '"';
                  Buffer.add_string b op;
                  Buffer.add_char b '"'
              | None -> Buffer.add_string b (Json.to_line (Json.Str op)));
              Buffer.add_string b ",\"key\":";
              (match ctx.fp with
              | Some fp ->
                  Buffer.add_char b '"';
                  Buffer.add_string b fp;
                  Buffer.add_char b '"'
              | None -> Buffer.add_string b "null");
              Buffer.add_string b ",\"tier\":";
              (match ctx.tier with
              | Some tier ->
                  Buffer.add_char b '"';
                  Buffer.add_string b (Cache.tier_name tier);
                  Buffer.add_char b '"'
              | None -> Buffer.add_string b "null");
              Buffer.add_string b ",\"latency_ns\":";
              add_int b lat_ns;
              Buffer.add_string b (if !ok then ",\"ok\":true}" else ",\"ok\":false}")));
      resp

(* --- connection plumbing --------------------------------------------- *)

(* [input_line] would happily buffer an unbounded newline-free stream;
   read by character and give up past the protocol limit instead. *)
let read_line_bounded ic ~limit =
  let buf = Buffer.create 256 in
  let rec loop () =
    match input_char ic with
    | exception End_of_file -> if Buffer.length buf = 0 then `Eof else `Line (Buffer.contents buf)
    | '\n' ->
        let s = Buffer.contents buf in
        let s =
          if String.length s > 0 && s.[String.length s - 1] = '\r' then
            String.sub s 0 (String.length s - 1)
          else s
        in
        `Line s
    | c ->
        if Buffer.length buf >= limit then `Too_long
        else begin
          Buffer.add_char buf c;
          loop ()
        end
  in
  loop ()

let handle_connection t fd =
  Tf_obs.Gauge.add t.connections 1.;
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let respond line =
    output_string oc line;
    output_char oc '\n';
    flush oc
  in
  (try
     let rec loop () =
       if not t.stopping then
         match read_line_bounded ic ~limit:Protocol.max_request_bytes with
         | `Eof -> ()
         | `Too_long ->
             (* The rest of the oversized line is unframed garbage; answer
                once and drop the connection rather than resynchronise. *)
             Tf_obs.Counter.incr t.bad_requests;
             respond
               (Protocol.error_line
                  (Printf.sprintf "request exceeds %d bytes" Protocol.max_request_bytes))
         | `Line "" -> loop ()
         | `Line line ->
             respond (handle_line t line);
             loop ()
     in
     loop ()
   with Sys_error _ | Unix.Unix_error _ | End_of_file ->
     (* Client went away mid-request/response (EPIPE with SIGPIPE
        ignored surfaces here); drop the connection quietly. *) ());
  (try close_out oc with Sys_error _ -> ());
  (* [ic] shares the (now closed) fd; there is nothing left to close. *)
  Tf_obs.Gauge.add t.connections (-1.)

let listen_unix path =
  if Sys.file_exists path then Sys.remove path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 64;
  sock

let listen_tcp port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen sock 64;
  sock

let serve t =
  (* A client closing mid-write must surface as EPIPE, not kill the
     process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let socks =
    (match t.config.socket_path with Some p -> [ listen_unix p ] | None -> [])
    @ match t.config.tcp_port with Some p -> [ listen_tcp p ] | None -> []
  in
  if socks = [] then invalid_arg "Tf_serve.Server.serve: no socket_path and no tcp_port";
  Telemetry.start t.telemetry;
  while not t.stopping do
    let readable =
      match Unix.select socks [] [] 0.2 with
      | readable, _, _ -> readable
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    List.iter
      (fun sock ->
        match Unix.accept sock with
        | fd, _ -> ignore (Thread.create (handle_connection t) fd : Thread.t)
        | exception Unix.Unix_error _ -> ())
      readable
  done;
  List.iter (fun sock -> try Unix.close sock with Unix.Unix_error _ -> ()) socks;
  Telemetry.stop t.telemetry;
  (match t.access with Some log -> Access_log.close log | None -> ());
  match t.config.socket_path with
  | Some p -> ( try Sys.remove p with Sys_error _ -> ())
  | None -> ()
