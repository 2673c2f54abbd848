(** Access counts across the memory hierarchy, in elements / scalar ops.

    A schedule's traffic record is what Accelergy would aggregate from
    per-Einsum statistics: how many element transfers hit each level and
    how much arithmetic executes.  Schedulers build these; {!Energy} and
    {!Latency} consume them. *)

type t = {
  dram_reads : float;  (** elements read from off-chip memory *)
  dram_writes : float;  (** elements written to off-chip memory *)
  buffer_reads : float;  (** on-chip global-buffer reads *)
  buffer_writes : float;
  regfile_accesses : float;  (** PE register-file events *)
  macs : float;  (** multiply-accumulates (matrix work) *)
  vector_ops : float;  (** scalar ALU slots (vector work) *)
}

val zero : t
val add : t -> t -> t
val sum : t list -> t
val scale : float -> t -> t

val dram_elements : t -> float
(** Reads plus writes. *)

val dram_bytes : element_bytes:int -> t -> float

val compute_ops : t -> float
(** macs + vector_ops. *)
