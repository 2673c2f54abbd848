(** Loop-nest mapping analysis in the spirit of Timeloop.

    A {e mapping} of an Einsum onto the memory hierarchy is an ordered
    nest of tiled loops (outermost first).  Each loop iterates one index
    over a factor of its extent and lives at a hierarchy level:

    - [Dram] loops stream tiles from off-chip memory into the buffer;
    - [Buffer] loops iterate a tile resident in the on-chip buffer;
    - [Spatial] loops are unrolled across the PE array.

    From the nest, per-tensor data movement follows the classic reuse
    rule: a tensor's tile at a boundary is its footprint over the loops
    below; the tile is re-fetched once per iteration of the loops above,
    except that the {e contiguous run of loops directly above the
    boundary whose index the tensor does not use} reuse the resident
    tile (temporal reuse).  Output tensors additionally count a
    write-back per distinct tile.

    This is the analysis Timeloop performs per Einsum (paper Section
    2.1); the coarser [Strategies] traffic recipes are consistent with
    it (see the cross-checks in the test suite). *)

type level = Dram | Buffer | Spatial

type loop = {
  index : Tf_einsum.Tensor_ref.index;
  extent : int;  (** iterations of this loop (a factor of the full extent) *)
  level : level;
}

type t

val v : ?extents:Tf_einsum.Extents.t -> Tf_einsum.Einsum.t -> loop list -> t
(** Build a mapping, outermost loop first.
    @raise Invalid_argument when loop extents are non-positive, levels
    are not ordered Dram >= Buffer >= Spatial from outer to inner, an
    index is not a dimension of the Einsum, or — when [extents] is given
    — the product of a dimension's loop factors does not equal its full
    extent (every dimension must be fully covered). *)

val loops : t -> loop list

val footprint : t -> tensor:Tf_einsum.Tensor_ref.t -> below:level -> float
(** Elements of [tensor]'s tile once all loops at levels strictly outer
    than [below] have fixed their iteration: the product over the
    tensor's indices of the extents of its loops at [below] and inner. *)

val reads : t -> tensor:Tf_einsum.Tensor_ref.t -> into:level -> float
(** Elements transferred into [into] for [tensor] over the whole
    execution (reuse rule above). *)

val writes : t -> into:level -> float
(** Write-back traffic of the output tensor from [into] to the level
    above: one element per distinct output tile element. *)

val dram_traffic : t -> float
(** Total elements moved between DRAM and the buffer: reads of every
    input plus the output write-back (and the output read-modify-write
    when reduction loops live at the DRAM level). *)

val buffer_occupancy : t -> float
(** Sum of all operand tiles resident in the buffer (footprints below
    [Buffer]). *)

val spatial_lanes : t -> int
(** Product of the spatial loop extents — the PEs the mapping unrolls
    over. *)

val validate : Tf_arch.Arch.t -> t -> (unit, string) result
(** Check the mapping against an architecture: buffer occupancy within
    capacity and spatial lanes within the 2D array. *)
