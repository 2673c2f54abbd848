(** Figure 8: speedup over Unfused of end-to-end Transformer execution.

    (a) Llama3 scaling across sequence lengths (1K-1M) on the cloud and
    edge architectures; (b) model-wise comparison (BERT, TrXL, T5, XLM,
    Llama3) at 64K under the same hardware. *)

type point = {
  arch : string;
  label : string;  (** sequence label or model name *)
  speedups : (Transfusion.Strategies.t * float) list;
}

val scaling : ?quick:bool -> Tf_arch.Arch.t list -> Tf_workloads.Model.t -> point list
(** Figure 8a rows: one point per (arch, sequence length). *)

val model_wise : ?seq:int -> Tf_arch.Arch.t -> point list
(** Figure 8b rows: one point per model at the given sequence (64K). *)

val to_json : point list -> Tf_json.t
(** One object per point: [{arch, label, speedups: {strategy: x}}] —
    the golden-snapshot shape. *)

val print : title:string -> point list -> unit
