(* Inside DPipe: the 12-Einsum attention cascade as a DAG, its valid
   bipartitions, and the pipelined schedule the DP produces — reproducing
   the Figure 7 walk-through of the paper on a real configuration.

   Run with:  dune exec examples/attention_pipeline.exe *)

module Dag = Tf_dag.Dag
module Partition = Tf_dag.Partition
module Einsum = Tf_einsum.Einsum

let () =
  let arch = Tf_arch.Presets.cloud in
  let workload = Tf_workloads.Workload.v Tf_workloads.Presets.llama3 ~seq_len:65536 in

  (* The 1-pass attention cascade (paper Einsum Cascade 1). *)
  let cascade = Transfusion.Cascades.mha () in
  Fmt.pr "%a@." Tf_einsum.Cascade.pp cascade;

  let { Transfusion.Layer_costs.load; matrix; dag = g; _ } =
    Transfusion.Layer_costs.problem workload cascade
  in
  let name i = (Tf_einsum.Cascade.op cascade i).Einsum.name in
  Fmt.pr "DAG: %d Einsums, %d dependency edges@." (Dag.node_count g) (Dag.edge_count g);
  Fmt.pr "sources: %s   sinks: %s@.@."
    (String.concat " " (List.map name (Dag.sources g)))
    (String.concat " " (List.map name (Dag.sinks g)));

  (* Every valid bipartition under the four DPipe constraints. *)
  let partitions = Partition.enumerate g in
  Fmt.pr "valid bipartitions: %d@." (List.length partitions);
  List.iteri
    (fun i (p : Partition.t) ->
      if i < 5 then
        Fmt.pr "  #%d  {%s | %s}@." i
          (String.concat " " (List.map name p.Partition.first))
          (String.concat " " (List.map name p.Partition.second)))
    partitions;

  (* Schedule with the DP (Eq. 43-46) and compare against the static and
     sequential disciplines. *)
  let dp = Transfusion.Dpipe.schedule arch ~load ~matrix (Transfusion.Dpipe.plan g) in
  let sequential = Transfusion.Dpipe.sequential_cycles arch ~load ~matrix g in
  Fmt.pr "@.sequential (FLAT-style) per-epoch cycles : %.4e@." sequential;
  Fmt.pr "DPipe steady interval per epoch          : %.4e  (%.2fx faster)@."
    dp.Transfusion.Dpipe.steady_interval_cycles
    (sequential /. dp.Transfusion.Dpipe.steady_interval_cycles);
  (match dp.Transfusion.Dpipe.partition with
  | Some p ->
      Fmt.pr "chosen stages: {%s | %s}@."
        (String.concat " " (List.map name p.Partition.first))
        (String.concat " " (List.map name p.Partition.second))
  | None -> Fmt.pr "single-stage schedule@.");

  (* The first pipeline epoch, operation by operation. *)
  Fmt.pr "@.epoch-0 timeline:@.";
  List.iter
    (fun (a : Transfusion.Dpipe.assignment) ->
      if a.Transfusion.Dpipe.epoch = 0 then
        Fmt.pr "  %-5s on %a: [%.3e, %.3e) cycles@." (name a.Transfusion.Dpipe.node)
          Tf_arch.Arch.pp_resource a.Transfusion.Dpipe.resource a.Transfusion.Dpipe.start_cycle
          a.Transfusion.Dpipe.end_cycle)
    dp.Transfusion.Dpipe.assignments
