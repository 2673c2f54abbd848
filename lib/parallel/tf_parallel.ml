(* Domain pool with chunked, order-preserving parallel map.

   One batch runs at a time (callers serialize on [engine]); the caller
   participates in its own batch, so a pool of size [j] uses [j - 1]
   worker domains.  Work is claimed chunk-by-chunk through an atomic
   counter and results land in preallocated slots indexed by input
   position, which is what makes parallel output bit-identical to
   sequential output for pure functions. *)

let max_jobs = 126

let clamp n = Int.max 1 (Int.min max_jobs n)

let override = ref None

let env_jobs () =
  match Sys.getenv_opt "TRANSFUSION_JOBS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some (clamp n)
    | Some _ | None -> None)

let default_jobs =
  lazy
    (match env_jobs () with
    | Some n -> n
    | None -> clamp (Domain.recommended_domain_count ()))

let jobs () =
  match !override with
  | Some n -> n
  | None -> Lazy.force default_jobs

let set_jobs n =
  if n < 1 then invalid_arg "Tf_parallel.set_jobs: jobs must be >= 1";
  override := Some (clamp n)

let clear_jobs_override () = override := None

let worker_flag : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* Set on the calling domain for the duration of a batch it drives, so a
   nested [map] reached from inside its own chunk work degrades to
   sequential instead of re-entering the engine (the pool does not
   recursively subdivide). *)
let busy_flag : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let must_run_sequentially () = Domain.DLS.get worker_flag || Domain.DLS.get busy_flag

(* Observability: batch/chunk counts, per-domain busy time and the
   effective parallelism of each batch (busy time over wall time).  All
   updates are guarded by [Tf_obs.enabled], so a disabled registry
   costs one atomic load per chunk. *)
let m_batches = Tf_obs.Counter.create ~help:"top-level parallel batches run" "parallel.batches_total"

let m_chunks = Tf_obs.Counter.create ~help:"work chunks claimed and executed" "parallel.chunks_total"

let m_seq_fallbacks =
  Tf_obs.Counter.create ~help:"map calls degraded to sequential execution"
    "parallel.seq_fallbacks_total"

let m_busy_ns =
  Tf_obs.Counter.create ~help:"summed chunk execution time across domains (ns)"
    "parallel.busy_ns_total"

let m_wall_ns =
  Tf_obs.Counter.create ~help:"summed batch wall time on the calling domain (ns)"
    "parallel.wall_ns_total"

let m_pool_jobs = Tf_obs.Gauge.create ~help:"job count of the last parallel batch" "parallel.pool_jobs"

let m_parallelism =
  Tf_obs.Histogram.create ~help:"per-batch effective parallelism (busy/wall)"
    ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128. |]
    "parallel.effective_parallelism"

(* Each domain owns a busy-time counter, created on first use and cached
   in domain-local storage so the hot path never takes the registry
   lock. *)
let domain_busy : Tf_obs.Counter.t Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      Tf_obs.Counter.create
        ~help:"chunk execution time on this domain (ns)"
        (Printf.sprintf "parallel.domain_busy_ns.d%d" (Domain.self () :> int)))

(* A batch is a monomorphic view of one [map] call: [run i] executes
   chunk [i] and writes results straight into the caller's slots. *)
type batch = {
  chunks : int;
  run : int -> unit;
  next : int Atomic.t;
  pending : int Atomic.t;
  err : (int * exn * Printexc.raw_backtrace) option Atomic.t;
  busy_ns : int Atomic.t;  (* summed chunk time, all domains *)
}

let engine = Mutex.create () (* serializes top-level batches *)

let lock = Mutex.create () (* guards [current]/[generation]/[shutdown] *)

let work_ready = Condition.create ()

let batch_done = Condition.create ()

let current : batch option ref = ref None

let generation = ref 0

let shutdown = ref false

let handles : unit Domain.t list ref = ref []

(* Keep the smallest failing chunk index so the surfaced exception is
   the one a sequential run would have hit first (among the failures
   that actually occurred). *)
let rec record_err b i e bt =
  let cur = Atomic.get b.err in
  let better =
    match cur with
    | None -> true
    | Some (j, _, _) -> i < j
  in
  if better && not (Atomic.compare_and_set b.err cur (Some (i, e, bt))) then
    record_err b i e bt

(* Claim and run chunks until none remain.  After a failure the
   remaining chunks are still claimed (so [pending] reaches zero) but
   their work is skipped. *)
let run_batch_chunks b =
  let continue = ref true in
  while !continue do
    let i = Atomic.fetch_and_add b.next 1 in
    if i >= b.chunks then continue := false
    else begin
      (if Atomic.get b.err = None then begin
         let obs = Tf_obs.enabled () in
         let t0 = if obs then Tf_obs.now_ns () else 0L in
         (try Tf_obs.Trace.with_span ~cat:"parallel" "parallel.chunk" (fun () -> b.run i)
          with e -> record_err b i e (Printexc.get_raw_backtrace ()));
         if obs then begin
           let dt = Int64.to_int (Int64.sub (Tf_obs.now_ns ()) t0) in
           ignore (Atomic.fetch_and_add b.busy_ns dt : int);
           Tf_obs.Counter.incr m_chunks;
           Tf_obs.Counter.add (Domain.DLS.get domain_busy) dt
         end
       end);
      if Atomic.fetch_and_add b.pending (-1) = 1 then begin
        Mutex.lock lock;
        Condition.broadcast batch_done;
        Mutex.unlock lock
      end
    end
  done

let worker_loop () =
  Domain.DLS.set worker_flag true;
  let last = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock lock;
    while (not !shutdown) && !generation = !last do
      Condition.wait work_ready lock
    done;
    if !shutdown then begin
      running := false;
      Mutex.unlock lock
    end
    else begin
      last := !generation;
      let b = !current in
      Mutex.unlock lock;
      match b with
      | None -> ()
      | Some b -> run_batch_chunks b
    end
  done

(* Called with [engine] held, so [handles] mutation is single-threaded. *)
let ensure_workers count =
  let missing = count - List.length !handles in
  for _ = 1 to missing do
    handles := Domain.spawn worker_loop :: !handles
  done

let shutdown_pool () =
  Mutex.lock lock;
  shutdown := true;
  Condition.broadcast work_ready;
  Mutex.unlock lock;
  List.iter Domain.join !handles;
  handles := []

let () = at_exit shutdown_pool

let run_parallel ~jobs:k ~chunks run =
  Mutex.lock engine;
  Domain.DLS.set busy_flag true;
  ensure_workers (k - 1);
  let b =
    { chunks; run; next = Atomic.make 0; pending = Atomic.make chunks;
      err = Atomic.make None; busy_ns = Atomic.make 0 }
  in
  let obs = Tf_obs.enabled () in
  let t0 = if obs then Tf_obs.now_ns () else 0L in
  Tf_obs.Trace.with_span ~cat:"parallel"
    ~args:[ ("jobs", string_of_int k); ("chunks", string_of_int chunks) ]
    "parallel.batch"
    (fun () ->
      Mutex.lock lock;
      current := Some b;
      incr generation;
      Condition.broadcast work_ready;
      Mutex.unlock lock;
      run_batch_chunks b;
      Mutex.lock lock;
      while Atomic.get b.pending > 0 do
        Condition.wait batch_done lock
      done;
      current := None;
      Mutex.unlock lock);
  if obs then begin
    let wall = Int64.to_int (Int64.sub (Tf_obs.now_ns ()) t0) in
    let busy = Atomic.get b.busy_ns in
    Tf_obs.Counter.incr m_batches;
    Tf_obs.Counter.add m_wall_ns wall;
    Tf_obs.Counter.add m_busy_ns busy;
    Tf_obs.Gauge.set m_pool_jobs (float_of_int k);
    if wall > 0 then
      Tf_obs.Histogram.observe m_parallelism (float_of_int busy /. float_of_int wall)
  end;
  Domain.DLS.set busy_flag false;
  Mutex.unlock engine;
  match Atomic.get b.err with
  | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let map ?jobs:j ?chunk f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let k =
      match j with
      | Some v ->
        if v < 1 then invalid_arg "Tf_parallel.map: jobs must be >= 1";
        clamp v
      | None -> jobs ()
    in
    let k = Int.min k n in
    if k <= 1 || must_run_sequentially () then begin
      Tf_obs.Counter.incr m_seq_fallbacks;
      Array.map f arr
    end
    else begin
      let chunk_size =
        match chunk with
        | Some c -> Int.max 1 c
        | None ->
          (* ~4 chunks per job keeps load balanced without excessive
             claiming traffic; result placement is by index, so the
             split never affects the output. *)
          let target = 4 * k in
          Int.max 1 ((n + target - 1) / target)
      in
      let chunks = (n + chunk_size - 1) / chunk_size in
      let results = Array.make n None in
      let run i =
        let lo = i * chunk_size in
        let hi = Int.min n (lo + chunk_size) - 1 in
        for idx = lo to hi do
          results.(idx) <- Some (f arr.(idx))
        done
      in
      run_parallel ~jobs:k ~chunks run;
      Array.map
        (function
          | Some v -> v
          | None -> assert false)
        results
    end
  end

let map_list ?jobs ?chunk f l =
  Array.to_list (map ?jobs ?chunk f (Array.of_list l))

let iter ?jobs ?chunk f arr = ignore (map ?jobs ?chunk f arr : unit array)

module Memo = struct
  (* A settled entry, threaded on the recency list: [newer] points
     towards the most recently touched entry, [older] towards the next
     eviction victim.  [Nil] ends the list in both directions. *)
  type ('k, 'v) node =
    | Nil
    | Node of {
        key : 'k;
        mutable v : 'v;
        mutable newer : ('k, 'v) node;
        mutable older : ('k, 'v) node;
      }

  type ('k, 'v) t = {
    mutex : Mutex.t;
    settled : Condition.t;  (* signalled when an in-flight key resolves *)
    ready : ('k, ('k, 'v) node) Hashtbl.t;  (* settled entries; bounded by [capacity] *)
    running : ('k, unit) Hashtbl.t;  (* in-flight keys; never counted, never evicted *)
    capacity : int;
    mutable newest : ('k, 'v) node;
    mutable oldest : ('k, 'v) node;
    mutable evicted : int;
    hits : Tf_obs.Counter.t option;
    misses : Tf_obs.Counter.t option;
    evictions : Tf_obs.Counter.t option;
  }

  let create ?name ~capacity () =
    if capacity < 1 then invalid_arg "Tf_parallel.Memo.create: capacity must be >= 1";
    let counter suffix help =
      Option.map (fun n -> Tf_obs.Counter.create ~help (Printf.sprintf "memo.%s.%s" n suffix)) name
    in
    {
      mutex = Mutex.create ();
      settled = Condition.create ();
      ready = Hashtbl.create (Int.min capacity 64);
      running = Hashtbl.create 8;
      capacity;
      newest = Nil;
      oldest = Nil;
      evicted = 0;
      hits = counter "hits_total" "lookups answered from the table (incl. waited-on in-flight)";
      misses = counter "misses_total" "lookups that ran the thunk";
      evictions = counter "evictions_total" "entries dropped by the capacity bound";
    }

  let bump = function Some c -> Tf_obs.Counter.incr c | None -> ()

  (* The list primitives below are called with [t.mutex] held. *)

  let set_newer n x = match n with Node r -> r.newer <- x | Nil -> ()
  let set_older n x = match n with Node r -> r.older <- x | Nil -> ()

  let unlink t = function
    | Nil -> ()
    | Node r as n ->
        if t.newest == n then t.newest <- r.older else set_older r.newer r.older;
        if t.oldest == n then t.oldest <- r.newer else set_newer r.older r.newer

  let push_newest t = function
    | Nil -> ()
    | Node r as n ->
        r.newer <- Nil;
        r.older <- t.newest;
        set_newer t.newest n;
        t.newest <- n;
        if t.oldest == Nil then t.oldest <- n

  let touch t n =
    if t.newest != n then begin
      unlink t n;
      push_newest t n
    end

  let value = function Node r -> r.v | Nil -> assert false

  (* Publish [v] under [k] as the most recent entry, then drop the
     least-recently-touched entries until the bound holds again. *)
  let insert t k v =
    let n = Node { key = k; v; newer = Nil; older = Nil } in
    Hashtbl.replace t.ready k n;
    push_newest t n;
    while Hashtbl.length t.ready > t.capacity do
      match t.oldest with
      | Nil -> assert false (* length > capacity >= 1 implies a non-empty list *)
      | Node r as victim ->
          unlink t victim;
          Hashtbl.remove t.ready r.key;
          t.evicted <- t.evicted + 1;
          bump t.evictions
    done

  let find_opt t k =
    Mutex.lock t.mutex;
    let r =
      match Hashtbl.find_opt t.ready k with
      | Some n ->
          touch t n;
          Some (value n)
      | None -> None
    in
    Mutex.unlock t.mutex;
    bump (if Option.is_none r then t.misses else t.hits);
    r

  (* Called with [t.mutex] held: wait until [k] is not in flight, then
     return its settled node, if any. *)
  let rec settled_node t k =
    match Hashtbl.find_opt t.ready k with
    | Some _ as n -> n
    | None when Hashtbl.mem t.running k ->
        Condition.wait t.settled t.mutex;
        settled_node t k
    | None -> None

  (* The thunk runs outside the lock so distinct keys compute
     concurrently, but a same-key race does not duplicate the (often
     expensive) computation or its side effects: the first caller marks
     the key in flight and later callers block on [settled] until the
     value -- computed exactly once -- is published.  If the thunk
     raises, the mark is removed so waiters retry (one of them becomes
     the new computer). *)
  let find_or_compute t k f =
    Mutex.lock t.mutex;
    match settled_node t k with
    | Some n ->
        touch t n;
        let v = value n in
        Mutex.unlock t.mutex;
        bump t.hits;
        v
    | None -> (
        Hashtbl.replace t.running k ();
        Mutex.unlock t.mutex;
        bump t.misses;
        match f () with
        | v ->
            Mutex.lock t.mutex;
            Hashtbl.remove t.running k;
            insert t k v;
            Condition.broadcast t.settled;
            Mutex.unlock t.mutex;
            v
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            Mutex.lock t.mutex;
            Hashtbl.remove t.running k;
            Condition.broadcast t.settled;
            Mutex.unlock t.mutex;
            Printexc.raise_with_backtrace e bt)

  let update t k f =
    Mutex.protect t.mutex (fun () ->
        match settled_node t k with
        | Some (Node r as n) ->
            r.v <- f (Some r.v);
            touch t n
        | Some Nil | None -> insert t k (f None))

  let length t = Mutex.protect t.mutex (fun () -> Hashtbl.length t.ready)
  let evictions t = Mutex.protect t.mutex (fun () -> t.evicted)

  let residents t =
    Mutex.protect t.mutex (fun () ->
        let rec walk acc = function Nil -> acc | Node r -> walk ((r.key, r.v) :: acc) r.newer in
        walk [] t.oldest)

  (* In-flight keys stay marked: their computers publish into the
     emptied table, and dropping the marks would strand waiters. *)
  let clear t =
    Mutex.protect t.mutex (fun () ->
        Hashtbl.reset t.ready;
        t.newest <- Nil;
        t.oldest <- Nil)
end
