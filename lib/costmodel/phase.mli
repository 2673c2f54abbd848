(** Phases: the units of sequential composition in a full-stack schedule.

    A phase is one layer — or one fused group of layers — executed to
    completion before the next phase starts.  Its [execution] captures how
    its compute occupies the two PE arrays; its [traffic] captures its
    memory behaviour.  {!Latency.evaluate} combines the two with the
    double-buffering rule: phase time = max(compute time, DRAM time). *)

type layer_kind = Qkv | Mha | Layernorm | Ffn | Fused_stack
(** The paper's per-layer attribution buckets (Figure 11); [Fused_stack]
    marks a phase spanning multiple layers, which contributes to every
    bucket via its [parts] field. *)

type execution = {
  makespan_cycles : float;  (** critical-path compute cycles *)
  useful_2d_slots : float;  (** scalar-op slots executed on the 2D array *)
  useful_1d_slots : float;  (** scalar-op slots executed on the 1D array *)
}

type t = {
  name : string;
  kind : layer_kind;
  traffic : Traffic.t;
  execution : execution;
  parts : (layer_kind * float) list;
      (** fraction of this phase's compute belonging to each per-layer
          bucket; must sum to 1 for attribution, [[]] means "all to
          [kind]". *)
}

val v :
  ?parts:(layer_kind * float) list ->
  name:string ->
  kind:layer_kind ->
  traffic:Traffic.t ->
  execution:execution ->
  unit ->
  t

val sequential_execution :
  Tf_arch.Arch.t -> matrix_load:float -> vector_load:float -> execution
(** Non-pipelined execution: matrix work at the 2D array's peak followed by
    vector work at the 1D array's peak — the two arrays never overlap
    (paper Section 6.1, Unfused/FLAT description). *)

val scale : float -> t -> t
(** Multiply traffic, makespan and useful slots — e.g. by the layer count
    to turn a per-layer phase into a whole-model phase. *)

val layer_kind_to_string : layer_kind -> string
