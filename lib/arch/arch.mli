(** Full accelerator specification (paper Figure 1 / Table 3).

    An architecture couples the two PE arrays, the shared on-chip buffer,
    the DRAM channel, a clock, and the efficiency factors that govern
    cross-array offloading:

    - [vector_eff_2d] — the fraction of peak the 2D array sustains on
      vector (map/reduce) work.  A systolic array executes element-wise
      work without its weight-stationary reuse, so it runs below peak; this
      single factor is what makes offloading LayerNorm/softmax pieces to
      the 2D array profitable on cloud but not free (paper Section 6.2,
      utilization discussion).
    - [matrix_eff_1d] — the fraction of peak the 1D array sustains on
      contraction work; the default of 1.0 reflects that both arrays are
      built from the same MAC-capable PEs (Figure 1) and a 1D array
      streams dot products at full rate. *)

type resource = Pe_1d | Pe_2d

type t = {
  name : string;
  pe_2d : Pe_array.t;
  pe_1d : Pe_array.t;
  buffer_bytes : int;  (** on-chip global buffer capacity *)
  dram_bw_bytes_per_s : float;
  clock_hz : float;
  element_bytes : int;  (** datatype width; 2 for fp16 *)
  vector_eff_2d : float;
  matrix_eff_1d : float;
  energy : Energy_table.t;
}

val v :
  ?clock_hz:float ->
  ?element_bytes:int ->
  ?vector_eff_2d:float ->
  ?matrix_eff_1d:float ->
  ?energy:Energy_table.t ->
  name:string ->
  pe_2d:Pe_array.t ->
  pe_1d:Pe_array.t ->
  buffer_bytes:int ->
  dram_bw_bytes_per_s:float ->
  unit ->
  t
(** Build a specification.  Defaults: 1 GHz clock, 2-byte elements,
    [vector_eff_2d = 0.25], [matrix_eff_1d = 1.0], 45 nm energies.
    @raise Invalid_argument on non-positive capacities or efficiencies
    outside of (0, 1]. *)

val effective_pes : t -> resource -> matrix:bool -> float
(** PE throughput (scalar slots per cycle) the resource sustains for matrix
    or vector work, after the efficiency factors. *)

val buffer_elements : t -> int
(** Buffer capacity in elements. *)

val bytes_to_seconds : t -> float -> float
(** Transfer time of a byte volume over the DRAM channel. *)

val cycles_to_seconds : t -> float -> float

val resource_to_string : resource -> string
val pp_resource : resource Fmt.t
val pp : t Fmt.t
