(** Roofline analysis of phases and Einsums.

    The cost model's phase rule — max(compute time, DRAM time) — is the
    roofline: a phase is memory-bound when its operational intensity
    (compute slots per byte of DRAM traffic) falls below the machine
    balance (peak slots per second over peak bytes per second).  This
    module exposes those quantities for reporting and for reasoning
    about where fusion (which raises intensity) can help. *)

type analysis = {
  intensity : float;  (** compute slots per DRAM byte *)
  machine_balance : float;  (** peak slots/s over bytes/s at the bound *)
  bound : [ `Compute | `Memory ];
  attainable_fraction : float;
      (** fraction of peak compute the phase can reach, in (0, 1] *)
}

val machine_balance : Tf_arch.Arch.t -> float
(** Peak matrix slots per second (both arrays) over DRAM bytes per
    second. *)

val of_phase : Tf_arch.Arch.t -> Phase.t -> analysis
(** Classify a phase.  Phases with zero DRAM traffic are compute-bound
    with infinite intensity. *)

val of_einsum :
  Tf_arch.Arch.t -> Tf_einsum.Extents.t -> Tf_einsum.Einsum.t -> analysis
(** Classify one Einsum under compulsory traffic (operands once) — the
    best any mapping can do; a memory-bound verdict here is fundamental,
    not a mapping artifact. *)
