type t = {
  dram_reads : float;
  dram_writes : float;
  buffer_reads : float;
  buffer_writes : float;
  regfile_accesses : float;
  macs : float;
  vector_ops : float;
}

let zero =
  {
    dram_reads = 0.;
    dram_writes = 0.;
    buffer_reads = 0.;
    buffer_writes = 0.;
    regfile_accesses = 0.;
    macs = 0.;
    vector_ops = 0.;
  }

let add a b =
  {
    dram_reads = a.dram_reads +. b.dram_reads;
    dram_writes = a.dram_writes +. b.dram_writes;
    buffer_reads = a.buffer_reads +. b.buffer_reads;
    buffer_writes = a.buffer_writes +. b.buffer_writes;
    regfile_accesses = a.regfile_accesses +. b.regfile_accesses;
    macs = a.macs +. b.macs;
    vector_ops = a.vector_ops +. b.vector_ops;
  }

let sum = List.fold_left add zero

let scale k t =
  {
    dram_reads = k *. t.dram_reads;
    dram_writes = k *. t.dram_writes;
    buffer_reads = k *. t.buffer_reads;
    buffer_writes = k *. t.buffer_writes;
    regfile_accesses = k *. t.regfile_accesses;
    macs = k *. t.macs;
    vector_ops = k *. t.vector_ops;
  }

let dram_elements t = t.dram_reads +. t.dram_writes
let dram_bytes ~element_bytes t = dram_elements t *. float_of_int element_bytes
let compute_ops t = t.macs +. t.vector_ops
