(** Per-Einsum rollup of a simulated schedule: where the cycles went.

    Aggregates {!Transfusion.Pipeline_sim} events by operation (node),
    attributing every instance's span to busy execution, dependency wait
    or resource wait, and attaches the roofline verdict of each operation
    under its tile extents ({!Tf_costmodel.Roofline.of_einsum}) — so one
    table answers both "which op occupies the arrays" and "is that op
    fundamentally compute- or memory-bound". *)

type row = {
  node : int;
  label : string;
  module_name : string;  (** Table 2 module (QKV / MHA / Add+LayerNorm / FFN) *)
  instances : int;
  on_2d : int;  (** instances assigned to the 2D array *)
  on_1d : int;
  busy_cycles : float;
  dep_wait_cycles : float;
  resource_wait_cycles : float;
  busy_fraction : float;  (** busy over the simulated makespan *)
  bound : [ `Compute | `Memory ];
  intensity : float;  (** compute slots per compulsory DRAM byte *)
  machine_balance : float;
}

type t = {
  makespan_cycles : float;
  instances : int;
  busy_2d_cycles : float;
  busy_1d_cycles : float;
  util_2d : float;  (** busy 2D cycles over makespan *)
  util_1d : float;
  dep_wait_cycles : float;
  resource_wait_cycles : float;
  rows : row list;  (** descending busy cycles; ties by node id *)
}

val of_events :
  outcome:Transfusion.Pipeline_sim.outcome ->
  label:(int -> string) ->
  module_of:(int -> string) ->
  roofline:(int -> Tf_costmodel.Roofline.analysis) ->
  Transfusion.Pipeline_sim.event list ->
  t
(** Aggregate one replay's events.  [label], [module_of] and [roofline]
    are indexed by node id (cascade position). *)

val render : t -> string
(** Human table: array utilisation header, then one line per operation. *)

val to_json : t -> Tf_json.t
(** Deterministic object mirroring the record (schema fragment of
    [transfusion.explain/1]). *)
