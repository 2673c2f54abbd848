open Tf_arch

type analysis = {
  intensity : float;
  machine_balance : float;
  bound : [ `Compute | `Memory ];
  attainable_fraction : float;
}

let peak_slots_per_s (arch : Arch.t) =
  (float_of_int (Pe_array.num_pes arch.Arch.pe_2d) +. float_of_int (Pe_array.num_pes arch.Arch.pe_1d))
  *. arch.Arch.clock_hz

let machine_balance arch = peak_slots_per_s arch /. arch.Arch.dram_bw_bytes_per_s

let classify arch ~slots ~dram_bytes =
  let balance = machine_balance arch in
  if dram_bytes <= 0. then
    { intensity = infinity; machine_balance = balance; bound = `Compute; attainable_fraction = 1. }
  else
    let intensity = slots /. dram_bytes in
    let bound = if intensity >= balance then `Compute else `Memory in
    {
      intensity;
      machine_balance = balance;
      bound;
      attainable_fraction = Float.min 1. (intensity /. balance);
    }

let of_phase arch (phase : Phase.t) =
  let slots = Traffic.compute_ops phase.Phase.traffic in
  let dram_bytes = Traffic.dram_bytes ~element_bytes:arch.Arch.element_bytes phase.Phase.traffic in
  classify arch ~slots ~dram_bytes

let of_einsum arch extents op =
  let slots = Tf_einsum.Einsum.compute_load extents op in
  let vol r = float_of_int (Tf_einsum.Extents.volume extents r) in
  let elements =
    vol op.Tf_einsum.Einsum.output
    +. List.fold_left (fun acc r -> acc +. vol r) 0. op.Tf_einsum.Einsum.inputs
  in
  classify arch ~slots ~dram_bytes:(elements *. float_of_int arch.Arch.element_bytes)
