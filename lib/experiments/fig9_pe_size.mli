(** Figure 9: impact of the 2D PE size on the edge architecture.

    (a) Llama3 scaling 1K-1M under the 32x32 and 64x64 edge variants
    (the 64x64 part has an 8 MB buffer, per the paper); (b) model-wise at
    64K under the same two configurations. *)

type point = {
  arch : string;
  label : string;
  speedups : (Transfusion.Strategies.t * float) list;
}

val scaling : ?quick:bool -> Tf_workloads.Model.t -> point list
(** Figure 9a: edge_32 and edge_64 across the sequence sweep. *)

val model_wise : unit -> point list
(** Figure 9b: the five models at 64K under both variants. *)

val to_json : point list -> Tf_json.t
(** Same shape as {!Fig8_speedup.to_json}. *)

val print : title:string -> point list -> unit
