module Json = Tf_json

let schema = "transfusion.serve-cache/1"

(* A memory-tier key: a request's typed key, or the fingerprint of a
   key document for callers that hold only the document. *)
type slot = Typed of Request.key | Doc of string

(* The fingerprint rides with the payload, so a hit reports it without
   rendering or digesting the key. *)
type entry = { fp : string; payload : string }

type t = {
  memo : (slot, entry) Tf_parallel.Memo.t;
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
    dir;
    disk_hits = Tf_obs.Counter.create ~help:"disk-tier cache hits" "serve.cache.disk_hits_total";
    disk_misses = Tf_obs.Counter.create ~help:"disk-tier cache misses" "serve.cache.disk_misses_total";
    disk_stores = Tf_obs.Counter.create ~help:"entries persisted to disk" "serve.cache.disk_stores_total";
    disk_errors =
      Tf_obs.Counter.create ~help:"unreadable/corrupt disk-tier entries" "serve.cache.disk_errors_total";
  }

let fingerprint key_json = Digest.to_hex (Digest.string (Json.to_line key_json))

let entry_path t fp =
  match t.dir with None -> None | Some dir -> Some (Filename.concat dir (fp ^ ".json"))

(* The payload line rides inside the entry as a JSON string: the
   emitter's [escape] and the reader's unescape are exact inverses on
   every byte the emitter produces, so a rehydrated payload is
   byte-identical to the one that was stored — the restart test pins
   this.  The whole entry is checked, but only [schema] and [payload]
   are built; the key document is skipped. *)
let read_entry text =
  let doc = Json.parse_members [ "schema"; "payload" ] text in
  match (Json.find "schema" doc, Json.find "payload" doc) with
  | Some (Json.Str s), Some (Json.Str payload) when String.equal s schema -> Some payload
  | _ -> None

let load_disk t fp =
  match entry_path t fp with
  | None -> None
  | Some path -> (
      match read_entry (In_channel.with_open_bin path In_channel.input_all) with
      | Some payload -> Some payload
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
      let doc =
        Json.Obj [ ("schema", Json.Str schema); ("key", key_json); ("payload", Json.Str payload) ]
      in
      (* Write-then-rename so a reader (or a restarted server) never
         sees a torn entry. *)
      let tmp = path ^ ".tmp" in
      match
        Json.write_file ~path:tmp (Json.to_string doc);
        Sys.rename tmp path
      with
      | () -> Tf_obs.Counter.incr t.disk_stores
      | exception Sys_error _ -> Tf_obs.Counter.incr t.disk_errors)

type tier = Memory | Disk | Computed

let tier_name = function Memory -> "memory" | Disk -> "disk" | Computed -> "computed"

(* [key_doc] runs only on a memory-tier miss: it gives the key document
   and its fingerprint, which name the disk entry. *)
let lookup ~report t slot ~key_doc compute =
  (* A tier left at [Memory] means the memo answered (a waiter on an
     in-flight computation also reads as a memory hit — it paid memo
     latency, not compute). *)
  let deep_tier = ref Memory in
  let entry =
    Tf_parallel.Memo.find_or_compute t.memo slot (fun () ->
        let key_json, fp = key_doc () in
        match load_disk t fp with
        | Some payload ->
            Tf_obs.Counter.incr t.disk_hits;
            deep_tier := Disk;
            { fp; payload }
        | None ->
            Tf_obs.Counter.incr t.disk_misses;
            let payload = compute () in
            store_disk t fp ~key_json payload;
            deep_tier := Computed;
            { fp; payload })
  in
  report ~fp:entry.fp ~tier:!deep_tier;
  entry.payload

let find_or_compute_key ~report t key compute =
  lookup ~report t (Typed key)
    ~key_doc:(fun () ->
      let key_json = Request.key_json key in
      (key_json, fingerprint key_json))
    compute

let find_or_compute ?(report = fun ~fp:_ ~tier:_ -> ()) t ~key_json compute =
  let fp = fingerprint key_json in
  lookup ~report t (Doc fp) ~key_doc:(fun () -> (key_json, fp)) compute
