module Json = Tf_json

let schema = "transfusion.serve-cache/2"

(* Bound of the typed-key fingerprint memo.  It keeps fingerprints only:
   a memo that also kept key documents would keep every cold key's
   document alive. *)
let fp_capacity = 1024

(* A memory-tier key: a request's typed key, or the fingerprint of a
   key document for callers that hold only the document. *)
type slot = Typed of Request.key | Doc of string

(* The fingerprint rides with the payload, so a hit reports it without
   rendering or digesting the key. *)
type entry = { fp : string; payload : string }

type t = {
  memo : (slot, entry) Tf_parallel.Memo.t;
  fps : (Request.key, string) Tf_parallel.Memo.t;
  dir : string option;
  disk_hits : Tf_obs.Counter.t;
  disk_misses : Tf_obs.Counter.t;
  disk_stores : Tf_obs.Counter.t;
  disk_errors : Tf_obs.Counter.t;
}

let create ?(max_entries = 1024) ?dir () =
  (match dir with Some d -> Json.write_file ~path:(Filename.concat d ".keep") "" | None -> ());
  {
    memo = Tf_parallel.Memo.create ~name:"serve.schedule" ~capacity:max_entries ();
    fps = Tf_parallel.Memo.create ~capacity:fp_capacity ();
    dir;
    disk_hits = Tf_obs.Counter.create ~help:"disk-tier cache hits" "serve.cache.disk_hits_total";
    disk_misses = Tf_obs.Counter.create ~help:"disk-tier cache misses" "serve.cache.disk_misses_total";
    disk_stores = Tf_obs.Counter.create ~help:"entries persisted to disk" "serve.cache.disk_stores_total";
    disk_errors =
      Tf_obs.Counter.create ~help:"unreadable/corrupt disk-tier entries" "serve.cache.disk_errors_total";
  }

let digest_line line = Digest.to_hex (Digest.string line)
let fingerprint key_json = digest_line (Json.to_line key_json)

let entry_path t fp =
  match t.dir with None -> None | Some dir -> Some (Filename.concat dir (fp ^ ".json"))

(* An entry is three lines: this header ending in the payload's length,
   the compact key document (whose digest is the file name) and the
   payload bytes as they were served, then one newline. *)
let header_prefix = Printf.sprintf {|{"schema":"%s","payload_bytes":|} schema

let entry_text ~key_line payload =
  let b = Buffer.create (String.length key_line + String.length payload + 80) in
  Buffer.add_string b header_prefix;
  Buffer.add_string b (string_of_int (String.length payload));
  Buffer.add_string b "}\n";
  Buffer.add_string b key_line;
  Buffer.add_char b '\n';
  Buffer.add_string b payload;
  Buffer.add_char b '\n';
  Buffer.contents b

(* The payload length a header names; [None] for any other line. *)
let payload_bytes header =
  let p = String.length header_prefix and n = String.length header in
  let rec digits i =
    i = n - 1 || match header.[i] with '0' .. '9' -> digits (i + 1) | _ -> false
  in
  if
    n >= p + 2 && n <= p + 16
    && String.starts_with ~prefix:header_prefix header
    && header.[n - 1] = '}' && digits p
  then Some (int_of_string (String.sub header p (n - p - 1)))
  else None

(* One buffered read.  A [schema] entry is a hit only when its key line
   digests to [fp] and exactly [payload_bytes] bytes, one newline and
   the end of the file follow it.  A claim past the channel's buffer is
   checked against the file size before it is allocated. *)
let read_entry fp ic =
  let header = In_channel.input_line ic in
  let key_line = In_channel.input_line ic in
  match (Option.bind header payload_bytes, key_line) with
  | Some n, Some key_line
    when String.equal (digest_line key_line) fp
         && (n <= 65536 || Int64.of_int n < In_channel.length ic) -> (
      match In_channel.really_input_string ic n with
      | Some payload
        when In_channel.input_char ic = Some '\n' && In_channel.input_char ic = None ->
          Some payload
      | _ -> None)
  | _ -> None

let load_disk t fp =
  match entry_path t fp with
  | None -> None
  | Some path -> (
      match In_channel.with_open_bin path (read_entry fp) with
      | Some _ as hit -> hit
      | exception Sys_error _ when not (Sys.file_exists path) -> None
      | None | (exception _) ->
          (* A corrupt, half-written or foreign entry must read as a
             miss, never kill the request. *)
          Tf_obs.Counter.incr t.disk_errors;
          None)

let store_disk t fp ~key_json payload =
  match entry_path t fp with
  | None -> ()
  | Some path -> (
      (* Write-then-rename so a reader (or a restarted server) never
         sees a torn entry. *)
      let tmp = path ^ ".tmp" in
      match
        Json.write_file ~path:tmp (entry_text ~key_line:(Json.to_line key_json) payload);
        Sys.rename tmp path
      with
      | () -> Tf_obs.Counter.incr t.disk_stores
      | exception Sys_error _ -> Tf_obs.Counter.incr t.disk_errors)

type tier = Memory | Disk | Computed

let tier_name = function Memory -> "memory" | Disk -> "disk" | Computed -> "computed"

(* [fp] runs only on a memory-tier miss and names the disk entry;
   [key_json] is forced only to store an entry. *)
let lookup ~report t slot ~fp ~key_json compute =
  (* A tier left at [Memory] means the memo answered (a waiter on an
     in-flight computation also reads as a memory hit — it paid memo
     latency, not compute). *)
  let deep_tier = ref Memory in
  let entry =
    Tf_parallel.Memo.find_or_compute t.memo slot (fun () ->
        let fp = fp () in
        match load_disk t fp with
        | Some payload ->
            Tf_obs.Counter.incr t.disk_hits;
            deep_tier := Disk;
            { fp; payload }
        | None ->
            Tf_obs.Counter.incr t.disk_misses;
            let payload = compute () in
            store_disk t fp ~key_json:(Lazy.force key_json) payload;
            deep_tier := Computed;
            { fp; payload })
  in
  report ~fp:entry.fp ~tier:!deep_tier;
  entry.payload

let find_or_compute_key ~report t key compute =
  lookup ~report t (Typed key)
    ~fp:(fun () ->
      Tf_parallel.Memo.find_or_compute t.fps key (fun () -> fingerprint (Request.key_json key)))
    ~key_json:(lazy (Request.key_json key))
    compute

let find_or_compute ?(report = fun ~fp:_ ~tier:_ -> ()) t ~key_json compute =
  let fp = fingerprint key_json in
  lookup ~report t (Doc fp) ~fp:(fun () -> fp) ~key_json:(Lazy.from_val key_json) compute
