module Json = Tf_json
module Strategies = Transfusion.Strategies
module Model = Tf_workloads.Model
module Workload = Tf_workloads.Workload
module Exp_common = Tf_experiments.Exp_common

exception Bad_request of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bad_request s)) fmt

(* Typed field accessors: absent fields take the default, present
   fields must have the right shape — a misspelled value is a client
   error, not a silent zero. *)

let field body key ~default read =
  match Json.find key body with None | Some Json.Null -> default | Some v -> read v

let int_field body key ~default =
  field body key ~default (fun v ->
      try Json.get_int v with Json.Bad_json _ -> fail "field %S must be an integer" key)

let str_field body key ~default =
  field body key ~default (function Json.Str s -> s | _ -> fail "field %S must be a string" key)

let str_list_field body key =
  field body key ~default:[] (function
    | Json.List items ->
        List.map (function Json.Str s -> s | _ -> fail "field %S must list strings" key) items
    | Json.Str s -> [ s ]
    | _ -> fail "field %S must be a list of strings" key)

type 'a preset = { what : string; all : 'a list; name : 'a -> string }

let arch_preset =
  { what = "architecture"; all = Tf_arch.Presets.all; name = (fun a -> a.Tf_arch.Arch.name) }

let model_preset = { what = "model"; all = Tf_workloads.Presets.all; name = (fun m -> m.Model.name) }
let strategy_preset = { what = "strategy"; all = Strategies.all; name = Strategies.name }

let parse_preset p s =
  match List.find_opt (fun v -> String.equal (p.name v) s) p.all with
  | Some v -> Ok v
  | None ->
      Error
        (Printf.sprintf "unknown %s %S (%s)" p.what s (String.concat "|" (List.map p.name p.all)))

let check_count key n =
  if n >= 1 then Ok n else Error (Printf.sprintf "%s must be >= 1 (got %d)" key n)

type 'a kind =
  | Count : int kind
  | Int : int kind
  | Flag : bool kind
  | Preset : 'a preset -> 'a kind
  | Presets : 'a preset * string -> 'a list kind

type 'a field = {
  key : string;
  flags : string list;
  docv : string;
  doc : string;
  default : 'a;
  kind : 'a kind;
}

let v ?(docv = "") key flags ~doc default kind = { key; flags; docv; doc; default; kind }

let arch =
  v "arch" [ "a"; "arch" ] ~docv:"ARCH" ~doc:"Architecture preset." Tf_arch.Presets.cloud
    (Preset arch_preset)

let model =
  v "model" [ "m"; "model" ] ~docv:"MODEL" ~doc:"Model preset." Tf_workloads.Presets.llama3
    (Preset model_preset)

let strategy =
  v "strategy" [ "strategy" ] ~docv:"STRATEGY" ~doc:"Scheduler to evaluate." Strategies.Transfusion
    (Preset strategy_preset)

let seq = v "seq" [ "s"; "seq" ] ~docv:"LEN" ~doc:"Sequence length." 65536 Count
let batch = v "batch" [ "b"; "batch" ] ~docv:"N" ~doc:"Batch size." 64 Count
let iterations = v "iterations" [ "iterations" ] ~docv:"N" ~doc:"TileSeek MCTS iterations." 200 Count
let quick = v "quick" [ "quick" ] ~doc:"Reduced sequence sweep." false Flag

type 'a spec = Const : 'a -> 'a spec | Field : ('a -> 'b) spec * 'a field -> 'b spec

let ( $ ) s f = Field (s, f)
let get_preset p s = match parse_preset p s with Ok v -> v | Error msg -> raise (Bad_request msg)

(* Type errors raise at once, in spec order; the first count below 1 is
   held back until every field has been type-checked. *)
let of_json spec body =
  let range_error = ref None in
  let read : type a. a field -> a =
   fun f ->
    match f.kind with
    | Int -> int_field body f.key ~default:f.default
    | Count ->
        let n = int_field body f.key ~default:f.default in
        (match (check_count f.key n, !range_error) with
        | Error msg, None -> range_error := Some msg
        | _ -> ());
        n
    | Flag ->
        field body f.key ~default:f.default (function
          | Json.Bool b -> b
          | _ -> fail "field %S must be a boolean" f.key)
    | Preset p ->
        field body f.key ~default:f.default (function
          | Json.Str s -> get_preset p s
          | _ -> fail "field %S must be a string" f.key)
    | Presets (p, alias) -> (
        (* The alias is type-checked first, as the daemon always has. *)
        let aliased = str_list_field body alias in
        match str_list_field body f.key @ aliased with
        | [] -> f.default
        | names -> List.map (get_preset p) names)
  in
  let rec build : type a. a spec -> a = function
    | Const v -> v
    | Field (s, f) ->
        let k = build s in
        k (read f)
  in
  let v = build spec in
  match !range_error with Some msg -> raise (Bad_request msg) | None -> v

let fingerprint = Strategies.Private.arch_fingerprint

type key =
  | Schedule_key of Exp_common.cache_key
  | Explain_key of {
      arch : string;
      model : string;
      seq : int;
      batch : int;
      iterations : int;
      seed : int;
      causal : bool;
    }
  | Decode_key of {
      arch : string;
      models : string list;
      strategies : string list;
      gen : int;
      batch : int;
      iterations : int;
      quick : bool;
    }

let strs l = Json.List (List.map (fun s -> Json.Str s) l)

let key_json = function
  | Schedule_key key ->
      Json.Obj [ ("endpoint", Json.Str "schedule"); ("key", Exp_common.Key.to_json key) ]
  | Explain_key k ->
      Json.Obj
        [
          ("endpoint", Json.Str "explain");
          ("arch", Json.Str k.arch);
          ("model", Json.Str k.model);
          ("seq", Json.Int k.seq);
          ("batch", Json.Int k.batch);
          ("iterations", Json.Int k.iterations);
          ("seed", Json.Int k.seed);
          ("causal", Json.Bool k.causal);
        ]
  | Decode_key k ->
      Json.Obj
        [
          ("endpoint", Json.Str "decode");
          ("arch", Json.Str k.arch);
          ("models", strs k.models);
          ("strategies", strs k.strategies);
          ("gen", Json.Int k.gen);
          ("batch", Json.Int k.batch);
          ("iterations", Json.Int k.iterations);
          ("quick", Json.Bool k.quick);
        ]

module Schedule = struct
  type t = {
    arch : Tf_arch.Arch.t;
    model : Model.t;
    seq : int;
    batch : int;
    strategy : Strategies.t;
    iterations : int;
  }

  let spec =
    Const
      (fun arch model seq batch strategy iterations ->
        { arch; model; seq; batch; strategy; iterations })
    $ arch $ model $ seq $ batch $ strategy $ iterations

  let workload t = Workload.v ~batch:t.batch t.model ~seq_len:t.seq

  let key t =
    Schedule_key
      (Exp_common.cache_key ~tileseek_iterations:t.iterations t.arch (workload t) t.strategy)
end

module Explain = struct
  type t = {
    arch : Tf_arch.Arch.t;
    model : Model.t;
    seq : int;
    batch : int;
    iterations : int;
    seed : int;
    causal : bool;
  }

  let seed = v "seed" [ "seed" ] ~docv:"N" ~doc:"TileSeek search seed." 42 Int
  let causal = v "causal" [ "causal" ] ~doc:"Use causal (masked decoder) self-attention." false Flag

  let spec =
    Const
      (fun arch model seq batch iterations seed causal ->
        { arch; model; seq; batch; iterations; seed; causal })
    $ arch $ model $ seq $ batch $ iterations $ seed $ causal

  let workload t = Workload.v ~batch:t.batch t.model ~seq_len:t.seq

  let key t =
    Explain_key
      {
        arch = fingerprint t.arch;
        model = t.model.Model.name;
        seq = t.seq;
        batch = t.batch;
        iterations = t.iterations;
        seed = t.seed;
        causal = t.causal;
      }
end

module Decode = struct
  type t = {
    arch : Tf_arch.Arch.t;
    models : Model.t list;
    strategies : Strategies.t list;
    gen : int;
    batch : int;
    iterations : int;
    quick : bool;
  }

  let models =
    v "models" [ "m"; "model" ] ~docv:"MODEL"
      ~doc:"Model preset (repeatable; default: BERT and Llama3 — encoder- and decoder-style)."
      Tf_workloads.Presets.[ bert; llama3 ]
      (Presets (model_preset, "model"))

  let strategies =
    v "strategies" [ "strategy" ] ~docv:"STRATEGY"
      ~doc:"Scheduler to evaluate (repeatable; default: FuseMax and TransFusion)." []
      (Presets (strategy_preset, "strategy"))

  let gen = v "gen" [ "gen" ] ~docv:"N" ~doc:"Generated tokens per request." 512 Count
  let batch = v "batch" [ "b"; "batch" ] ~docv:"N" ~doc:"Concurrent requests." 16 Count

  let spec =
    Const
      (fun arch models strategies gen batch iterations quick ->
        { arch; models; strategies; gen; batch; iterations; quick })
    $ arch $ models $ strategies $ gen $ batch $ iterations $ quick

  (* The default strategy list, spelt out, keys like the empty list it
     stands for: both compute the same payload, and the empty list is
     what every default-strategy entry on disk was named by. *)
  let key t =
    let strategies =
      if t.strategies = Tf_experiments.Exp_generation.default_strategies then [] else t.strategies
    in
    Decode_key
      {
        arch = fingerprint t.arch;
        models = List.map model_preset.name t.models;
        strategies = List.map strategy_preset.name strategies;
        gen = t.gen;
        batch = t.batch;
        iterations = t.iterations;
        quick = t.quick;
      }
end
