(** Energy aggregation and per-component breakdown (Accelergy role).

    Figure 13 of the paper reports energy split across DRAM, the on-chip
    global buffer, the register files and the PE arrays; this module turns
    a {!Traffic.t} into exactly that record using the architecture's
    {!Tf_arch.Energy_table.t}. *)

type breakdown = {
  dram_pj : float;
  buffer_pj : float;
  regfile_pj : float;
  compute_pj : float;
}

val of_traffic : Tf_arch.Arch.t -> Traffic.t -> breakdown

val total_pj : breakdown -> float

val add : breakdown -> breakdown -> breakdown

val scale : float -> breakdown -> breakdown
(** Component-wise scaling — e.g. a per-step breakdown times a token
    count when aggregating a decode sweep in closed form. *)

val fractions : breakdown -> (string * float) list
(** [(component, share)] for DRAM / Global Buffer / Register File / PE, in
    that order; shares sum to 1 for a non-zero breakdown. *)

val pp : breakdown Fmt.t
