type layer_kind = Qkv | Mha | Layernorm | Ffn | Fused_stack

type execution = {
  makespan_cycles : float;
  useful_2d_slots : float;
  useful_1d_slots : float;
}

type t = {
  name : string;
  kind : layer_kind;
  traffic : Traffic.t;
  execution : execution;
  parts : (layer_kind * float) list;
}

let v ?(parts = []) ~name ~kind ~traffic ~execution () =
  { name; kind; traffic; execution; parts }

let sequential_execution arch ~matrix_load ~vector_load =
  let open Tf_arch in
  let pes_2d = Arch.effective_pes arch Arch.Pe_2d ~matrix:true in
  let pes_1d = Arch.effective_pes arch Arch.Pe_1d ~matrix:false in
  {
    makespan_cycles = (matrix_load /. pes_2d) +. (vector_load /. pes_1d);
    useful_2d_slots = matrix_load;
    useful_1d_slots = vector_load;
  }

let scale k t =
  {
    t with
    traffic = Traffic.scale k t.traffic;
    execution =
      {
        makespan_cycles = k *. t.execution.makespan_cycles;
        useful_2d_slots = k *. t.execution.useful_2d_slots;
        useful_1d_slots = k *. t.execution.useful_1d_slots;
      };
  }

let layer_kind_to_string = function
  | Qkv -> "QKV"
  | Mha -> "MHA"
  | Layernorm -> "LayerNorm"
  | Ffn -> "FFN"
  | Fused_stack -> "Fused"
