(** Figure 10: 1D/2D PE-array utilization on the cloud architecture.

    (a) Llama3 across sequence lengths; (b) the five models at 64K.
    Utilization is useful compute slots divided by the array's peak
    capacity over the whole execution. *)

type point = {
  arch : string;
  label : string;
  per_strategy : (Transfusion.Strategies.t * float * float) list;
      (** (strategy, 2D utilization, 1D utilization), in [0, 1] *)
}

val scaling : ?quick:bool -> Tf_arch.Arch.t -> Tf_workloads.Model.t -> point list
val model_wise : ?seq:int -> Tf_arch.Arch.t -> point list

val to_json : point list -> Tf_json.t
(** [{arch, label, utilization: {strategy: {util_2d, util_1d}}}]. *)

val print : title:string -> point list -> unit
