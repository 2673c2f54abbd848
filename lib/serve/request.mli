(** The typed requests of the three scheduling queries — [schedule]
    (the CLI's [eval]), [explain] and [decode] — and the one field table
    both front ends read them from: each entry gives the JSON key, the
    CLI flags, docv and doc, the default and the kind, whose parser
    holds the preset-name error text and the [>= 1] check.  The daemon
    reads a record with {!of_json}; the CLI builds its Cmdliner terms
    from the same entries. *)

exception Bad_request of string
(** Client errors; the daemon answers them with [ok:false]. *)

val fail : ('a, unit, string, 'b) format4 -> 'a

(** Absent (or null) fields take [default], ill-typed fields raise
    {!Bad_request}.  An integer field takes what {!Tf_json.get_int}
    takes, so a number beyond 2{^53} is ill-typed, not wrapped. *)

val int_field : Tf_json.t -> string -> default:int -> int
val str_field : Tf_json.t -> string -> default:string -> string

type 'a preset = { what : string; all : 'a list; name : 'a -> string }

val model_preset : Tf_workloads.Model.t preset

val parse_preset : 'a preset -> string -> ('a, string) result
(** The member named [s], or ["unknown <what> \"s\" (a|b|...)"]. *)

val check_count : string -> int -> (int, string) result
(** [n] when [n >= 1], else ["<key> must be >= 1 (got n)"]. *)

type 'a kind =
  | Count : int kind  (** an integer, checked by {!check_count} *)
  | Int : int kind
  | Flag : bool kind  (** a JSON boolean; a CLI flag *)
  | Preset : 'a preset -> 'a kind  (** a JSON string; a CLI option *)
  | Presets : 'a preset * string -> 'a list kind
      (** Repeatable: a JSON list of strings or one bare string, read
          under [key] and under the alias given here (key first); a
          repeated CLI option.  An empty list means the default. *)

type 'a field = {
  key : string;  (** JSON key; also the name in the [>= 1] error *)
  flags : string list;  (** CLI option names *)
  docv : string;
  doc : string;
  default : 'a;
  kind : 'a kind;
}

val arch : Tf_arch.Arch.t field
val model : Tf_workloads.Model.t field
val strategy : Transfusion.Strategies.t field
val seq : int field
val batch : int field
val iterations : int field
val quick : bool field

(** A request record's fields, in reading order, and how to build the
    record from them: [Field (Field (Const f, a), b)] reads [a] then
    [b] and returns [f a b]. *)
type 'a spec = Const : 'a -> 'a spec | Field : ('a -> 'b) spec * 'a field -> 'b spec

val of_json : 'a spec -> Tf_json.t -> 'a
(** Read a request body: every field is type-checked (and its preset
    resolved) in spec order; then the first {!Count} below 1, in spec
    order, is refused.
    @raise Bad_request on the first error. *)

type key
(** The compact cache key of a request: every field its payload depends
    on, with the architecture as its
    {!Transfusion.Strategies.Private.arch_fingerprint} and models and
    strategies by name, compared structurally.  Two keys are equal
    exactly when their {!key_json} documents are, so the memory tier can
    compare keys without rendering them.  A [decode] request that spells
    out the default strategies has the key of one that leaves them
    out. *)

val key_json : key -> Tf_json.t
(** The key document a disk entry is named by and stores:
    [{"endpoint":"schedule","key":<Exp_common.Key.to_json>}], or the
    [explain]/[decode] fields with an [endpoint] tag. *)

module Schedule : sig
  type t = {
    arch : Tf_arch.Arch.t;
    model : Tf_workloads.Model.t;
    seq : int;
    batch : int;
    strategy : Transfusion.Strategies.t;
    iterations : int;
  }

  val spec : t spec
  val workload : t -> Tf_workloads.Workload.t
  val key : t -> key
end

module Explain : sig
  type t = {
    arch : Tf_arch.Arch.t;
    model : Tf_workloads.Model.t;
    seq : int;
    batch : int;
    iterations : int;
    seed : int;
    causal : bool;
  }

  val spec : t spec
  val workload : t -> Tf_workloads.Workload.t
  val key : t -> key
end

module Decode : sig
  type t = {
    arch : Tf_arch.Arch.t;
    models : Tf_workloads.Model.t list;
    strategies : Transfusion.Strategies.t list;
        (** [[]] means {!Tf_experiments.Exp_generation.default_strategies} *)
    gen : int;
    batch : int;
    iterations : int;
    quick : bool;
  }

  val spec : t spec
  val key : t -> key
end
