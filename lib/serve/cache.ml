module Json = Tf_json

let schema = "transfusion.serve-cache/1"

type t = {
  memo : (string, string) Tf_parallel.Memo.t;
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
   this. *)
let load_disk t fp =
  match entry_path t fp with
  | None -> None
  | Some path when not (Sys.file_exists path) -> None
  | Some path -> (
      match Json.(get_string (member "payload" (parse_file path))) with
      | payload -> Some payload
      | exception _ ->
          (* A corrupt or half-written entry must read as a miss, never
             kill the request. *)
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

let find_or_compute ?report t ~key_json compute =
  let fp = fingerprint key_json in
  (* The thunk runs only on a memory-tier miss, so a tier left unset
     means the memo answered (a waiter on an in-flight computation also
     reads as a memory hit — it paid memo latency, not compute). *)
  let deep_tier = ref None in
  let payload =
    Tf_parallel.Memo.find_or_compute t.memo fp (fun () ->
        match load_disk t fp with
        | Some payload ->
            Tf_obs.Counter.incr t.disk_hits;
            deep_tier := Some Disk;
            payload
        | None ->
            Tf_obs.Counter.incr t.disk_misses;
            let payload = compute () in
            store_disk t fp ~key_json payload;
            deep_tier := Some Computed;
            payload)
  in
  (match report with
  | Some f -> f ~fp ~tier:(match !deep_tier with Some tier -> tier | None -> Memory)
  | None -> ());
  payload

