module Decode = Transfusion.Decode
module Strategies = Transfusion.Strategies
module Generation = Tf_workloads.Generation
module Exp_common = Tf_experiments.Exp_common
module Exp_generation = Tf_experiments.Exp_generation
module Json = Tf_json

type per_request = {
  ttft_s : float;
  token_s_first : float;
  token_s_last : float;
  decode_s : float;
  prefill_energy_pj : float;
  energy_per_token_pj : float;
  decode_energy_pj : float;
}

type t = {
  arch : Tf_arch.Arch.t;
  model : Tf_workloads.Model.t;
  strategy : Strategies.t;
  iterations : int;
  cache : Tf_serve.Cache.t option;
  (* Shape memo: one entry per distinct (prompt, gen) — the whole point
     is that a 10k-request simulation over a handful of classes pays a
     handful of TileSeek searches.  [memo.serving.decode.*] counters. *)
  memo : (int * int, per_request) Tf_parallel.Memo.t;
  (* KV-cache feasibility per (batch, kv): the arch and model are fixed
     per instance, so they need no place in the key.
     [memo.serving.feasible.*] counters. *)
  feasible : (int * int, bool) Tf_parallel.Memo.t;
  computes : int Atomic.t;  (* decode evaluations actually run *)
}

let create ?(max_entries = 512) ?cache ?(strategy = Strategies.Transfusion) ?(iterations = 60)
    arch model =
  {
    arch;
    model;
    strategy;
    iterations;
    cache;
    memo = Tf_parallel.Memo.create ~name:"serving.decode" ~capacity:max_entries ();
    feasible = Tf_parallel.Memo.create ~name:"serving.feasible" ~capacity:4096 ();
    computes = Atomic.make 0;
  }

let spec t ~(cls : Traffic.cls) =
  Generation.v ~batch:1 ~gen:cls.Traffic.gen t.model ~prompt:cls.Traffic.prompt

(* Priced, and verified, as every other decode result is. *)
let metrics t ~cls =
  Atomic.incr t.computes;
  let p = Exp_generation.point ~tileseek_iterations:t.iterations t.arch (spec t ~cls) t.strategy in
  p.Exp_generation.metrics

let of_metrics (m : Decode.metrics) =
  let decode_energy_pj = Tf_costmodel.Energy.total_pj m.Decode.decode_energy in
  {
    ttft_s = m.Decode.ttft_s;
    token_s_first = m.Decode.token_s_first;
    token_s_last = m.Decode.token_s_last;
    decode_s = m.Decode.decode_s;
    prefill_energy_pj = m.Decode.total_energy_pj -. decode_energy_pj;
    energy_per_token_pj = m.Decode.energy_per_token_pj;
    decode_energy_pj;
  }

(* -------------------------------------------------------------------- *)
(* Disk-tier codec.  Floats are rendered hexadecimally ([%h]) so a
   rehydrated cost is bit-identical to a computed one — the simulator's
   reports must not depend on whether the cache was warm. *)

let payload_schema = "transfusion.serving-cost/1"

let render_payload c =
  Json.to_line
    (Json.Obj
       [
         ("schema", Json.Str payload_schema);
         ("ttft_s", Json.Str (Printf.sprintf "%h" c.ttft_s));
         ("token_s_first", Json.Str (Printf.sprintf "%h" c.token_s_first));
         ("token_s_last", Json.Str (Printf.sprintf "%h" c.token_s_last));
         ("decode_s", Json.Str (Printf.sprintf "%h" c.decode_s));
         ("prefill_energy_pj", Json.Str (Printf.sprintf "%h" c.prefill_energy_pj));
         ("energy_per_token_pj", Json.Str (Printf.sprintf "%h" c.energy_per_token_pj));
         ("decode_energy_pj", Json.Str (Printf.sprintf "%h" c.decode_energy_pj));
       ])

(* Any malformed entry, or one missing a field, reads as [None] and the
   caller recomputes — a corrupt cache line must never poison a
   report. *)
let parse_payload line =
  match Json.parse line with
  | exception Json.Bad_json _ -> None
  | doc -> (
      let field name =
        match Json.find name doc with Some (Json.Str s) -> float_of_string_opt s | _ -> None
      in
      let ( let* ) = Option.bind in
      let* ttft_s = field "ttft_s" in
      let* token_s_first = field "token_s_first" in
      let* token_s_last = field "token_s_last" in
      let* decode_s = field "decode_s" in
      let* prefill_energy_pj = field "prefill_energy_pj" in
      let* energy_per_token_pj = field "energy_per_token_pj" in
      let* decode_energy_pj = field "decode_energy_pj" in
      Some
        {
          ttft_s;
          token_s_first;
          token_s_last;
          decode_s;
          prefill_energy_pj;
          energy_per_token_pj;
          decode_energy_pj;
        })

let key_json t ~(cls : Traffic.cls) =
  (* Reuse the schedule store's key codec (arch fingerprint + full model
     record) and tag on the decode horizon, which the workload key alone
     does not carry. *)
  let prefill = Generation.prefill_workload (spec t ~cls) in
  let key = Exp_common.cache_key ~tileseek_iterations:t.iterations t.arch prefill t.strategy in
  Json.Obj
    [
      ("schema", Json.Str payload_schema);
      ("key", Exp_common.Key.to_json key);
      ("gen", Json.Int cls.Traffic.gen);
    ]

let costs t ~cls =
  Tf_parallel.Memo.find_or_compute t.memo (cls.Traffic.prompt, cls.Traffic.gen) (fun () ->
      match t.cache with
      | None -> of_metrics (metrics t ~cls)
      | Some cache -> (
          let line =
            Tf_serve.Cache.find_or_compute cache ~key_json:(key_json t ~cls) (fun () ->
                render_payload (of_metrics (metrics t ~cls)))
          in
          match parse_payload line with
          | Some c -> c
          | None -> of_metrics (metrics t ~cls)))

let token_s c ~gen ~i =
  if gen <= 1 then c.token_s_first
  else
    let u = float_of_int (i - 1) /. float_of_int (gen - 1) in
    (* Exact at both endpoints: u = 0 and u = 1 reproduce the stored
       floats bit-for-bit, which the differential test pins. *)
    ((1. -. u) *. c.token_s_first) +. (u *. c.token_s_last)

let arch t = t.arch
let model t = t.model
let strategy t = t.strategy
let iterations t = t.iterations

let fits t ~batch ~kv =
  Tf_parallel.Memo.find_or_compute t.feasible (batch, kv) (fun () ->
      let w = Tf_workloads.Workload.v ~batch t.model ~seq_len:1 in
      let config = Transfusion.Tileseek.greedy ~kv_len:kv ~decode:true t.arch w in
      Transfusion.Tileseek.feasible ~kv_len:kv ~decode:true t.arch w config)

let stats t =
  (Tf_parallel.Memo.length t.memo, Tf_parallel.Memo.evictions t.memo, Atomic.get t.computes)
