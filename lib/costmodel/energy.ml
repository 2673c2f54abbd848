open Tf_arch

type breakdown = {
  dram_pj : float;
  buffer_pj : float;
  regfile_pj : float;
  compute_pj : float;
}

let m_evaluations =
  Tf_obs.Counter.create ~help:"Energy.of_traffic calls (energy-model runs)"
    "costmodel.energy_evaluations_total"

let of_traffic (arch : Arch.t) (t : Traffic.t) =
  Tf_obs.Counter.incr m_evaluations;
  let e = arch.energy in
  {
    dram_pj = Traffic.dram_elements t *. e.Energy_table.dram_access_pj;
    buffer_pj = (t.buffer_reads +. t.buffer_writes) *. e.Energy_table.buffer_access_pj;
    regfile_pj = t.regfile_accesses *. e.Energy_table.regfile_access_pj;
    compute_pj = (t.macs *. e.Energy_table.mac_pj) +. (t.vector_ops *. e.Energy_table.vector_op_pj);
  }

let total_pj b = b.dram_pj +. b.buffer_pj +. b.regfile_pj +. b.compute_pj

let add a b =
  {
    dram_pj = a.dram_pj +. b.dram_pj;
    buffer_pj = a.buffer_pj +. b.buffer_pj;
    regfile_pj = a.regfile_pj +. b.regfile_pj;
    compute_pj = a.compute_pj +. b.compute_pj;
  }

let scale k b =
  {
    dram_pj = k *. b.dram_pj;
    buffer_pj = k *. b.buffer_pj;
    regfile_pj = k *. b.regfile_pj;
    compute_pj = k *. b.compute_pj;
  }

let fractions b =
  let total = total_pj b in
  let f x = if total > 0. then x /. total else 0. in
  [
    ("DRAM", f b.dram_pj);
    ("GlobalBuffer", f b.buffer_pj);
    ("RegisterFile", f b.regfile_pj);
    ("PE", f b.compute_pj);
  ]

let pp ppf b =
  Fmt.pf ppf "dram=%.3epJ buffer=%.3epJ rf=%.3epJ pe=%.3epJ (total %.3epJ)" b.dram_pj b.buffer_pj
    b.regfile_pj b.compute_pj (total_pj b)
