(** End-to-end verification entry points.

    These bundle the three checker families ({!Ir_lint}, {!Sched_lint},
    {!Tiling_lint}) into the combinations the framework actually trusts:
    the built-in cascades, the DPipe schedule of a fused layer, a
    strategy-evaluation result, and the whole preset grid.  Experiment
    code calls {!strategy_result} before exporting numbers; the CLI's
    [lint] subcommand calls {!check_presets}. *)

val lint_builtins : unit -> Diagnostic.t list
(** IR lints over every built-in cascade under the tile extents of T5 at
    16K (the extents only scale the checks' extent comparisons). *)

val pipeline :
  ?attention:Transfusion.Strategies.attention ->
  Tf_arch.Arch.t ->
  Tf_workloads.Workload.t ->
  Diagnostic.t list
(** Schedule the fused layer's DPipe problem
    ({!Transfusion.Strategies.layer_problem} at the default [m0], the
    balanced split of the key/value length) and verify it with
    {!Sched_lint}, plus IR lints of the cascade itself. *)

val execution :
  Tf_arch.Arch.t ->
  Transfusion.Strategies.attention ->
  Transfusion.Strategies.execution ->
  Diagnostic.t list
(** Verify a TransFusion execution, scheduling nothing again: the layer's
    DPipe schedule ({!Sched_lint}, plus IR lints of its problem's cascade)
    and, where static is served, the FuseMax-pinned attention schedule,
    also against {!Transfusion.Strategies.fusemax_assign}'s pins. *)

val strategy_result :
  Transfusion.Strategies.result * Transfusion.Strategies.execution option -> Diagnostic.t list
(** Verify everything checkable about an evaluation result, as
    {!Transfusion.Strategies.evaluate} returns it: on the architecture,
    workload and attention flavour it was priced for, the chosen tiling
    (when present) against {!Tiling_lint}, and the execution it was
    priced with under {!execution}.
    @raise Invalid_argument for a TransFusion result without its
    execution. *)

val check_presets : ?quick:bool -> unit -> Diagnostic.t list
(** The lint battery over the built-in presets: IR lints of the built-in
    cascades, tiling lints of the fallback and greedy tilings of every
    architecture preset, and schedule verification of the fused-layer
    pipeline in both encoder (self-attention) and decoder (causal)
    flavours.  [quick] (default true) restricts to the cloud and edge
    architectures and the Llama3 model. *)

val certify_range :
  ?attention:Range_cert.attention ->
  ?batch:int ->
  ?seq:int ->
  ?policy:Range_cert.policy ->
  Tf_arch.Arch.t ->
  Tf_workloads.Model.t ->
  lo:int ->
  hi:int ->
  ?step:int ->
  unit ->
  Range_cert.t
(** Certify a whole range of sequence lengths at once
    ({!Range_cert.certify}); [step] defaults to [lo], so the default grid
    is the multiples of the low end — the bucketing discipline of a
    schedule server.  Experiment sweeps call this before exporting
    figures; the [check] CLI subcommand exposes it directly. *)
