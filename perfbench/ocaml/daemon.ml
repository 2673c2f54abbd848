(* A `transfusion serve` process and one client connection to it, plus
   the closed-loop load generator that drives it. *)

exception Timeout

(* Children still running; killed and reaped at exit whatever happens. *)
let live : int list ref = ref []

let reap pid =
  live := List.filter (( <> ) pid) !live;
  let rec wait () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap pid)
        !live)

(* The environment every child runs in: single-domain, whatever the
   caller's setting (see perfbench/run.py). *)
let child_env () =
  Array.append
    [| "TRANSFUSION_JOBS=1" |]
    (Array.of_list
       (List.filter
          (fun kv -> not (String.starts_with ~prefix:"TRANSFUSION_JOBS=" kv))
          (Array.to_list (Unix.environment ()))))

let spawn ?stdout ~prog ~argv ~log () =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let logfd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let out = Option.value ~default:devnull stdout in
  let pid = Unix.create_process_env prog (Array.of_list (prog :: argv)) (child_env ()) devnull out logfd in
  Unix.close devnull;
  Unix.close logfd;
  live := pid :: !live;
  pid

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ ->
      live := List.filter (( <> ) pid) !live;
      true

type t = {
  pid : int;
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable lo : int;
  mutable hi : int;
}

(* [cpu], when given, pins the daemon to that core with taskset(1). *)
let start ?cpu ~cli ~socket ~args ~log () =
  (if Sys.file_exists socket then Sys.remove socket);
  let serve = "serve" :: "--socket" :: socket :: args in
  let pid =
    match cpu with
    | None -> spawn ~prog:cli ~argv:serve ~log ()
    | Some c -> spawn ~prog:"taskset" ~argv:("-c" :: string_of_int c :: cli :: serve) ~log ()
  in
  let deadline = Host.now_s () +. 30. in
  let rec connect () =
    if exited pid then failwith ("transfusion serve exited during start-up; see " ^ log);
    if Host.now_s () > deadline then failwith "transfusion serve did not open its socket";
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        Unix.sleepf 0.001;
        connect ()
  in
  let fd = connect () in
  { pid; fd; buf = Bytes.create 65536; lo = 0; hi = 0 }

let send t s =
  let len = String.length s in
  let rec go off = if off < len then go (off + Unix.write_substring t.fd s off (len - off)) in
  go 0

(* Read whatever the socket has, waiting at most [timeout] seconds. *)
let fill t ~timeout =
  if t.hi = Bytes.length t.buf then begin
    let live_bytes = t.hi - t.lo in
    let buf = if live_bytes * 2 > Bytes.length t.buf then Bytes.create (2 * Bytes.length t.buf) else t.buf in
    Bytes.blit t.buf t.lo buf 0 live_bytes;
    t.buf <- buf;
    t.lo <- 0;
    t.hi <- live_bytes
  end;
  (match Unix.select [ t.fd ] [] [] timeout with
  | [], _, _ -> raise Timeout
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
  let n = Unix.read t.fd t.buf t.hi (Bytes.length t.buf - t.hi) in
  if n = 0 then raise End_of_file;
  t.hi <- t.hi + n

let next_line t =
  let rec find i = if i >= t.hi then None else if Bytes.get t.buf i = '\n' then Some i else find (i + 1) in
  match find t.lo with
  | None -> None
  | Some nl ->
      let line = Bytes.sub_string t.buf t.lo (nl - t.lo) in
      t.lo <- nl + 1;
      Some line

let rec read_line t ~timeout =
  match next_line t with
  | Some l -> l
  | None ->
      fill t ~timeout;
      read_line t ~timeout

let request ?(timeout = 120.) t line =
  send t (line ^ "\n");
  read_line t ~timeout

(* The daemon's registry, as (name, value) pairs: counters and gauges as
   numbers, histograms as their sums. *)
let metrics t =
  let line = request t {|{"op":"metrics"}|} in
  match Tf_serve.Protocol.result_of_line line with
  | None -> failwith ("metrics op failed: " ^ line)
  | Some payload ->
      let doc = Tf_report.Json_read.parse payload in
      (match Tf_report.Json_read.member "metrics" doc with
      | Tf_report.Json_read.Obj kvs ->
          List.filter_map
            (fun (k, v) ->
              match v with
              | Tf_report.Json_read.Num f -> Some (k, f)
              | Tf_report.Json_read.Obj _ -> (
                  match Tf_report.Json_read.find "sum" v with
                  | Some (Tf_report.Json_read.Num f) -> Some (k, f)
                  | _ -> None)
              | _ -> None)
            kvs
      | _ -> failwith "metrics op: no metrics object")

let delta before after name =
  let get l = Option.value ~default:0. (List.assoc_opt name l) in
  get after -. get before

let shutdown t =
  (try ignore (request ~timeout:10. t {|{"op":"shutdown"}|}) with _ -> ());
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  (* The accept loop notices the flag within 200 ms. *)
  let deadline = Host.now_s () +. 10. in
  let rec wait () =
    if not (exited t.pid) then
      if Host.now_s () > deadline then begin
        (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
        reap t.pid
      end
      else begin
        Unix.sleepf 0.01;
        wait ()
      end
  in
  wait ()

(* --- closed-loop load generation -------------------------------------- *)

type run = {
  sent : int;
  completed : int;
  failed : int;
  lat_ns : float array;  (** per completed request, in request order *)
  done_at : float array;  (** completion time (s, monotonic), same order *)
  t0 : float;
  t1 : float;  (** when the last response arrived *)
  ticks : (float * float) array;  (** (time, [sample ()]) at t0, every [tick_s], and the deadline *)
}

(* Growable float buffer. *)
type fbuf = { mutable a : float array; mutable n : int }

let push b x =
  if b.n = Array.length b.a then begin
    let a = Array.make (2 * b.n + 16) 0. in
    Array.blit b.a 0 a 0 b.n;
    b.a <- a
  end;
  b.a.(b.n) <- x;
  b.n <- b.n + 1

(* Keep [depth] requests in flight on the connection until [seconds]
   have passed or [max_n] requests were sent, then drain.  [line i] is
   request [i] (newline included); [check i response] judges its answer.
   The protocol answers in order on a connection, so response k belongs
   to request k.  A response that does not arrive within [timeout] fails
   every request still in flight and ends the run.  [sample ()] is read
   at the start, after each [tick_s] and when the deadline passes, between
   two reads of the socket. *)
let drive t ~depth ~seconds ~max_n ~line ~check ~timeout ~tick_s ~sample =
  let sent_ns = Array.make depth 0L in
  let lat = { a = [||]; n = 0 } and dn = { a = [||]; n = 0 } in
  let sent = ref 0 and completed = ref 0 and failed = ref 0 in
  let t0 = Host.now_s () in
  let deadline = t0 +. seconds in
  let ticks = ref [ (t0, sample ()) ] and next_tick = ref (t0 +. tick_s) in
  let out = Buffer.create 8192 in
  let issue k =
    Buffer.clear out;
    let stamp = Tf_obs.now_ns () in
    for _ = 1 to k do
      if !sent < max_n then begin
        Buffer.add_string out (line !sent);
        sent_ns.(!sent mod depth) <- stamp;
        incr sent
      end
    done;
    if Buffer.length out > 0 then send t (Buffer.contents out)
  in
  issue depth;
  let stop = ref false in
  while !completed < !sent && not !stop do
    match fill t ~timeout with
    | exception (Timeout | End_of_file | Unix.Unix_error _) ->
        failed := !failed + (!sent - !completed);
        stop := true
    | () ->
        let now = Tf_obs.now_ns () in
        let now_s = Int64.to_float now /. 1e9 in
        let got = ref 0 in
        let rec drain () =
          match next_line t with
          | None -> ()
          | Some resp ->
              let i = !completed in
              push lat (Int64.to_float (Int64.sub now sent_ns.(i mod depth)));
              push dn now_s;
              if not (check i resp) then incr failed;
              incr completed;
              incr got;
              drain ()
        in
        drain ();
        if now_s >= !next_tick && !next_tick <= deadline +. tick_s then begin
          ticks := (now_s, sample ()) :: !ticks;
          next_tick := if now_s >= deadline then infinity else Float.min deadline (!next_tick +. tick_s)
        end;
        if now_s < deadline then issue !got
  done;
  {
    sent = !sent;
    completed = !completed;
    failed = !failed;
    lat_ns = Array.sub lat.a 0 lat.n;
    done_at = Array.sub dn.a 0 dn.n;
    t0;
    t1 = (if dn.n = 0 then Host.now_s () else dn.a.(dn.n - 1));
    ticks = Array.of_list (List.rev !ticks);
  }
