(** Accelergy-style compound-component estimation (paper Section 2.1).

    Accelergy derives the energy of architectural actions from primitive
    component tables at a technology node; compound components (a MAC, a
    PE with its register file, a banked SRAM) compose primitives.  This
    module provides the same derivation for the components our
    architectures use, at the paper's 45 nm node, and is the source of
    {!Energy_table.default_45nm}-class numbers:

    - arithmetic primitives follow the published 45 nm figures
      (Horowitz, ISSCC'14): fp16 add 0.4 pJ, fp16 mul 1.1 pJ;
    - SRAM access energy scales with the square root of capacity
      (wordline/bitline model) and is amortised over the row width;
    - DRAM access energy is per 16-bit element off-chip.

    Areas are first-order estimates for sanity checks and the area
    report of the CLI; they are not used by the performance model. *)

type primitive = { energy_pj : float; area_um2 : float }

type t = {
  node_nm : int;
  fp_add : primitive;
  fp_mul : primitive;
  regfile_access : primitive;  (** one 16-bit register-file port event *)
  sram_8kb_row : primitive;  (** one row access of an 8 KB SRAM macro *)
  dram_element_pj : float;  (** off-chip access per 16-bit element *)
  sram_bit_area_um2 : float;
}

val node_45nm : t

val scale_to_node : t -> target_nm:int -> t
(** First-order constant-field scaling: energy and area scale with
    (target/node)^2.  @raise Invalid_argument on non-positive target. *)

val buffer_access_pj : t -> capacity_bytes:int -> row_bytes:int -> float
(** Energy per 16-bit element of one buffer access: the 8 KB row-access
    energy scaled by sqrt(capacity / 8KB), amortised over the elements
    of a row.  @raise Invalid_argument on non-positive sizes. *)

val energy_table : ?node:t -> ?buffer_bytes:int -> ?row_bytes:int -> unit -> Energy_table.t
(** Derive a full {!Energy_table.t} (defaults: the 45 nm node, a 16 MB
    buffer, 256-byte rows).  The derived table lands within a small
    factor of {!Energy_table.default_45nm}, which the test suite
    asserts. *)

val arch_area_mm2 : t -> Arch.t -> float
(** First-order die area: all PEs of both arrays plus the buffer SRAM. *)
