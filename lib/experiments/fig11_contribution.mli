(** Figure 11: per-layer speedup-contribution breakdown of TransFusion
    over FuseMax (Eq. 47-48) on Llama3 across sequence lengths, cloud and
    edge. *)

type point = {
  arch : string;
  label : string;
  entries : Transfusion.Speedup.entry list;  (** QKV, MHA, LayerNorm, FFN *)
}

val scaling : ?quick:bool -> Tf_arch.Arch.t list -> Tf_workloads.Model.t -> point list

val to_json : point list -> Tf_json.t
(** One object per point: [arch], [label] and an [entries] object keyed
    by bucket (qkv, mha, layernorm, ffn) holding [speedup] and
    [contribution]. *)

val print : title:string -> point list -> unit
