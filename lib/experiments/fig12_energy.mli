(** Figure 12: energy consumption normalised to Unfused.

    (a) Llama3 across sequence lengths on cloud and edge; (b) model-wise
    at 64K.  Lower is better. *)

type point = {
  arch : string;
  label : string;
  energy : (Transfusion.Strategies.t * float) list;  (** Unfused = 1.0 *)
}

val scaling : ?quick:bool -> Tf_arch.Arch.t list -> Tf_workloads.Model.t -> point list
val model_wise : ?seq:int -> Tf_arch.Arch.t -> point list

val to_json : point list -> Tf_json.t
(** [{arch, label, energy: {strategy: ratio}}] (Unfused = 1.0). *)

val print : title:string -> point list -> unit
