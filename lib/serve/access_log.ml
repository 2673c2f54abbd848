(* Size-bounded NDJSON access log.  One writer (the request path) per
   process is the expected shape, but the lock makes concurrent
   connection threads safe.  Writes ride the out_channel buffer — a
   flush per request would cost a syscall on the warm cache-hit path —
   so readers (tests, scrapers) call [flush], and the daemon's sampler
   tick flushes once per interval. *)

type t = {
  path : string;
  max_bytes : int;
  max_files : int;
  lock : Mutex.t;
  mutable oc : out_channel option;
  mutable size : int;  (* bytes written to the current file *)
  scratch : Buffer.t;  (* record-assembly buffer, reused under the lock *)
  lines : Tf_obs.Counter.t;
  rotations : Tf_obs.Counter.t;
  errors : Tf_obs.Counter.t;
}

(* Rotated files are [path.1] (newest) .. [path.max_files] (oldest). *)
let rotated path i = Printf.sprintf "%s.%d" path i

(* A predecessor that died mid-write leaves a partial trailing line.
   Appending would splice the next record onto it, corrupting both;
   terminate the orphan instead so every complete line in the file is
   valid NDJSON and only the torn one reads as garbage. *)
let open_for_append path =
  let needs_newline =
    match open_in_bin path with
    | exception Sys_error _ -> false
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let len = in_channel_length ic in
            if len = 0 then false
            else begin
              seek_in ic (len - 1);
              input_char ic <> '\n'
            end)
  in
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  if needs_newline then output_char oc '\n';
  (oc, out_channel_length oc)

let create ?(max_bytes = 1 lsl 20) ?(max_files = 4) path =
  if max_bytes < 1 then invalid_arg "Access_log.create: max_bytes must be >= 1";
  if max_files < 1 then invalid_arg "Access_log.create: max_files must be >= 1";
  let oc, size = open_for_append path in
  {
    path;
    max_bytes;
    max_files;
    lock = Mutex.create ();
    oc = Some oc;
    size;
    scratch = Buffer.create 256;
    lines = Tf_obs.Counter.create ~help:"access-log records written" "serve.access_log.lines_total";
    rotations = Tf_obs.Counter.create ~help:"access-log rotations" "serve.access_log.rotations_total";
    errors =
      Tf_obs.Counter.create ~help:"access-log write/rotation errors" "serve.access_log.errors_total";
  }

(* Shift path.(i) -> path.(i+1), dropping the oldest, then restart the
   live file.  Caller holds the lock. *)
let rotate t =
  (match t.oc with
  | Some oc ->
      close_out_noerr oc;
      t.oc <- None
  | None -> ());
  (try Sys.remove (rotated t.path t.max_files) with Sys_error _ -> ());
  for i = t.max_files - 1 downto 1 do
    try Sys.rename (rotated t.path i) (rotated t.path (i + 1)) with Sys_error _ -> ()
  done;
  (try Sys.rename t.path (rotated t.path 1) with Sys_error _ -> ());
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 t.path in
  t.oc <- Some oc;
  t.size <- 0;
  Tf_obs.Counter.incr t.rotations

(* Not Fun.protect: these run per request on the warm cache-hit path
   (the bench bounds the whole telemetry tax at a few percent of an
   ~8us request), and every risky branch below already confines its
   exceptions, so the plain lock/unlock pair is safe and the per-call
   closure allocation is spared. *)
let write t line =
  Mutex.lock t.lock;
  (match t.oc with
  | None -> ()  (* closed; late stragglers from draining threads drop *)
  | Some _ -> (
      let len = String.length line + 1 in
      if t.size > 0 && t.size + len > t.max_bytes then rotate t;
      match t.oc with
      | None -> ()
      | Some oc -> (
          match
            output_string oc line;
            output_char oc '\n'
          with
          | () ->
              t.size <- t.size + len;
              Tf_obs.Counter.incr t.lines
          | exception Sys_error _ -> Tf_obs.Counter.incr t.errors)));
  Mutex.unlock t.lock

(* [write] minus the caller-side string: [fill] assembles the record
   into the log's scratch buffer, which (newline included, so the
   channel is touched exactly once) is flushed without an intermediate
   copy. *)
let write_record t fill =
  Mutex.lock t.lock;
  (match t.oc with
  | None -> ()
  | Some _ -> (
      Buffer.clear t.scratch;
      (match fill t.scratch with
      | () -> ()
      | exception _ -> Buffer.clear t.scratch);
      let len = Buffer.length t.scratch + 1 in
      if len > 1 then begin
        Buffer.add_char t.scratch '\n';
        if t.size > 0 && t.size + len > t.max_bytes then rotate t;
        match t.oc with
        | None -> ()
        | Some oc -> (
            match Buffer.output_buffer oc t.scratch with
            | () ->
                t.size <- t.size + len;
                Tf_obs.Counter.incr t.lines
            | exception Sys_error _ -> Tf_obs.Counter.incr t.errors)
      end));
  Mutex.unlock t.lock

let flush t =
  Mutex.lock t.lock;
  (match t.oc with
  | Some oc -> ( try flush oc with Sys_error _ -> Tf_obs.Counter.incr t.errors)
  | None -> ());
  Mutex.unlock t.lock

let close t =
  Mutex.lock t.lock;
  (match t.oc with
  | Some oc ->
      (try close_out oc with Sys_error _ -> Tf_obs.Counter.incr t.errors);
      t.oc <- None
  | None -> ());
  Mutex.unlock t.lock
