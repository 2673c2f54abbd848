(** Exhaustive mapper for single Einsums (the role of Timeloop's mapper,
    paper Section 2.1).

    For one operation the mapper enumerates two-level tilings — every
    power-of-two split of each dimension into a DRAM-level factor and a
    buffer-resident factor, under every ordering of the DRAM loops — and
    returns the buffer-feasible mapping with the least DRAM traffic
    (ties broken by smaller buffer occupancy).

    This covers the DRAM-to-buffer level, the same scope as TileSeek's
    outer tiling; the on-chip levels are DPipe's job.  It is used by the
    tests to cross-check the strategies' closed-form traffic recipes and
    is available from the CLI for mapping studies. *)

type stats = {
  enumerated : int;  (** candidate mappings generated *)
  feasible : int;  (** candidates fitting the buffer *)
}

val enumerate :
  ?max_candidates:int -> Tf_einsum.Extents.t -> Tf_einsum.Einsum.t -> Loopnest.t list
(** All candidate mappings, deterministically ordered, truncated at
    [max_candidates] (default 20000).
    @raise Not_found when a dimension of the operation is unbound. *)

val search :
  Tf_arch.Arch.t ->
  Tf_einsum.Extents.t ->
  Tf_einsum.Einsum.t ->
  (Loopnest.t * float * stats, string) result
(** Best feasible mapping among {!enumerate}'s first 20000 candidates and
    its DRAM traffic (elements).  [Error] when no candidate fits the
    buffer. *)

val traffic_lower_bound : Tf_einsum.Extents.t -> Tf_einsum.Einsum.t -> float
(** Compulsory traffic: every operand once (inputs read + output
    written) — no mapping can beat it. *)
