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
    Cache.find_or_compute_key t.cache ~report:(reporter ctx) (Request.Schedule.key r) (fun () ->
        Json.to_line (Api.result_json (fst (Api.schedule r))))
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
  Cache.find_or_compute_key t.cache ~report:(reporter ctx) (Request.Explain.key req) (fun () ->
      Json.to_line (Tf_report.Explain.to_json (Api.explain req)))

let decode_payload t ctx body =
  let req = Request.of_json Request.Decode.spec body in
  Cache.find_or_compute_key t.cache ~report:(reporter ctx) (Request.Decode.key req) (fun () ->
      Json.to_line (Tf_experiments.Exp_generation.to_json (Api.decode req)))

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
          | Some _ when Tf_obs.Trace.active () ->
              Tf_obs.Trace.with_span ~cat:"serve"
                ~args:[ ("request_id", rid); ("op", op) ]
                ("serve." ^ op)
                (fun () -> route t ctx req)
          | _ -> route t ctx req  (* unknown op: no span from attacker-chosen names *)
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

(* The connection loop reads the socket in blocks and splits lines
   itself, and answers into a reused output buffer that is written when
   no complete request line is left in the input (so a client that
   pipelines many requests gets their answers in few writes), or when
   the next response would take it past [out_limit].  Both buffers
   start small and double as a connection needs them: allocating both
   at 64 KiB up front raised the daemon's peak RSS on a pipelined
   warm-hit load by about 0.5 MB. *)
let out_limit = 65536

type conn = {
  fd : Unix.file_descr;
  mutable input : Bytes.t;  (* grows to [max_request_bytes + 1] for a long line *)
  mutable lo : int;  (* start of the first unanswered line *)
  mutable scanned : int;  (* [lo .. scanned) holds no newline *)
  mutable hi : int;  (* end of the bytes read *)
  mutable output : Bytes.t;  (* grows to [out_limit] *)
  mutable out_len : int;
}

(* [Unix.single_write] writes nothing when it fails, so an interrupted
   write is retried whole. *)
let rec write_all fd b off len =
  if len > 0 then
    match Unix.single_write fd b off len with
    | n -> write_all fd b (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b off len

let flush_output c =
  write_all c.fd c.output 0 c.out_len;
  c.out_len <- 0

(* Append [s] and a newline, growing the buffer as needed; the caller
   keeps the total within [out_limit]. *)
let append_line c s =
  let len = String.length s in
  let need = c.out_len + len + 1 in
  if need > Bytes.length c.output then begin
    let bigger = Bytes.create (min out_limit (max need (2 * Bytes.length c.output))) in
    Bytes.blit c.output 0 bigger 0 c.out_len;
    c.output <- bigger
  end;
  Bytes.blit_string s 0 c.output c.out_len len;
  Bytes.set c.output (need - 1) '\n';
  c.out_len <- need

let respond c line =
  let len = String.length line in
  if c.out_len + len + 1 > out_limit then flush_output c;
  if len + 1 <= out_limit then append_line c line
  else begin
    (* Larger than the whole buffer (a metrics snapshot): straight out,
       then its newline. *)
    write_all c.fd (Bytes.unsafe_of_string line) 0 len;
    append_line c ""
  end

(* Read more input after [hi], first moving the unanswered bytes to
   the front and, when they fill the buffer, doubling it (up to the one
   byte past the protocol limit that proves a line too long).  [0] at
   end of input. *)
let rec refill c =
  if c.lo > 0 then begin
    Bytes.blit c.input c.lo c.input 0 (c.hi - c.lo);
    c.hi <- c.hi - c.lo;
    c.scanned <- c.scanned - c.lo;
    c.lo <- 0
  end;
  if c.hi = Bytes.length c.input then begin
    let bigger = Bytes.create (min (2 * Bytes.length c.input) (Protocol.max_request_bytes + 1)) in
    Bytes.blit c.input 0 bigger 0 c.hi;
    c.input <- bigger
  end;
  match Unix.read c.fd c.input c.hi (Bytes.length c.input - c.hi) with
  | n ->
      c.hi <- c.hi + n;
      n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill c

let rec newline c =
  if c.scanned >= c.hi then -1
  else if Bytes.unsafe_get c.input c.scanned = '\n' then c.scanned
  else begin
    c.scanned <- c.scanned + 1;
    newline c
  end

let handle_connection t fd =
  Tf_obs.Gauge.add t.connections 1.;
  let c =
    {
      fd;
      input = Bytes.create 4096;
      lo = 0;
      scanned = 0;
      hi = 0;
      output = Bytes.create 4096;
      out_len = 0;
    }
  in
  let answer start len = respond c (handle_line t (Bytes.sub_string c.input start len)) in
  let too_long () =
    (* The rest of the oversized line is unframed garbage; answer once
       and drop the connection rather than resynchronise. *)
    Tf_obs.Counter.incr t.bad_requests;
    respond c
      (Protocol.error_line (Printf.sprintf "request exceeds %d bytes" Protocol.max_request_bytes))
  in
  let rec loop () =
    if not t.stopping then begin
      let nl = newline c in
      if nl >= 0 then begin
        if nl - c.lo > Protocol.max_request_bytes then too_long ()
        else begin
          let stop = if nl > c.lo && Bytes.get c.input (nl - 1) = '\r' then nl - 1 else nl in
          let start = c.lo in
          c.lo <- nl + 1;
          c.scanned <- nl + 1;
          (* An empty line is skipped. *)
          if stop > start then answer start (stop - start);
          loop ()
        end
      end
      else if c.hi - c.lo > Protocol.max_request_bytes then too_long ()
      else begin
        flush_output c;
        if refill c > 0 then loop ()
        else if c.hi > c.lo then
          (* An unterminated last line is still a request. *)
          answer c.lo (c.hi - c.lo)
      end
    end
  in
  (try
     loop ();
     flush_output c
   with Unix.Unix_error _ ->
     (* Client went away mid-request/response (EPIPE with SIGPIPE
        ignored surfaces here); drop the connection quietly. *) ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
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
