(** Figure 13: energy breakdown across the memory hierarchy (DRAM, global
    buffer, register file, PE arrays) for TransFusion and FuseMax on
    Llama3, cloud and edge, across sequence lengths. *)

type point = {
  arch : string;
  label : string;
  strategy : Transfusion.Strategies.t;
  fractions : (string * float) list;  (** DRAM / GlobalBuffer / RegisterFile / PE, sums to 1 *)
  total_pj : float;
}

val scaling :
  ?quick:bool -> Tf_arch.Arch.t list -> Tf_workloads.Model.t -> point list
(** The points of TransFusion (13a) and FuseMax (13b). *)

val to_json : point list -> Tf_json.t
(** [{arch, label, strategy, fractions: {component: share}, total_pj}]. *)

val print : title:string -> point list -> unit
