(** Range certification: abstract interpretation of the cost/buffer
    pipeline over a closed range of sequence lengths.

    A point lint ({!Tiling_lint}, {!Sched_lint}) validates one concrete
    sequence length; serving systems bucket requests by length and reuse
    one tiling/schedule across a whole bucket, so the question that
    actually matters is "is this configuration safe for {e every}
    [n] in [lo..hi]?".  [certify] answers it by instantiating the very
    functors the concrete pipeline instantiates at [float] — Table 2
    occupancy ({!Transfusion.Buffer_req.Gen}), the op table's instance
    counts, totals and node times ({!Transfusion.Layer_costs.Table}),
    the DPipe timeline ({!Transfusion.Dpipe.Replay}) — at one instance
    of {!Transfusion.Num_domain.S} over the interval/affine domain of
    {!Symexpr} instead of concrete numbers, and emits a machine-checkable
    certificate ([transfusion.cert/1]) whose every claim carries a
    witness grid point where the bound is tightest.  {!Cert_check}
    re-validates a certificate independently, without this module's
    (or the pipeline's) code.

    Soundness is per-{e grid}: the certificate quantifies over the
    arithmetic progression [lo, lo+step, ..., hi], whose box corners are
    themselves grid points, so every affine/monotone bound is attained at
    a certifiable point. *)

type range = { lo : int; hi : int; step : int }
(** The certified grid [lo, lo+step, ..]; [hi] is normalised down to the
    last reachable grid point. *)

type attention =
  | Self  (** encoder self-attention: the range quantifies [seq_len] *)
  | Causal  (** decoder (masked) self-attention over [seq_len] *)
  | Decode
      (** a single decode step: the range quantifies the {e KV-cache}
          length while the query length stays fixed at [seq] *)

type policy =
  | Fixed  (** certify one frozen tiling across the whole range *)
  | Resident
      (** keep the full key/value sequence resident: [m1 = n / m0] grows
          with the range variable, so occupancy is genuinely affine in
          [n] — the FLAT-style discipline.  Refused with [E-CERT-STEP]
          when the balanced [m0] policy is not constant over the grid. *)

type kind =
  | Divides of { q : int; fail_at : int option }
      (** [q] divides every grid point of the range variable; [fail_at]
          is the smallest failing grid point when it does not. *)
  | Bound of {
      cmp : [ `Le | `Ge ];
      expr : Symexpr.expr option;
          (** [None] when the witness expression is too large to embed
              (the makespan: its closed form is the whole replayed
              timeline) — the checker validates those claims by replaying
              [schedule.op_times] instead. *)
      bound : float;
      exact : bool;
      witness : Symexpr.point;
      limit : float option;  (** [None] — informational bound *)
    }
  | Eq of { got : float; want : float }  (** concrete equality *)
  | Acyclic  (** feed order is a topological order of the instance DAG *)

type check = { id : string; code : string; ok : bool; detail : string; kind : kind }
(** [code] is the diagnostic code a failure maps to ([E-CERT-*]). *)

type instance_row = { i_node : int; i_epoch : int; i_res : Tf_arch.Arch.resource }

type schedule_cert = {
  nodes : int;
  epochs : int;
  instances : instance_row list;  (** in DP feed order *)
  edges : (int * int) list;  (** same-epoch dependency edges (pred, succ) *)
  op_times : (int * Symexpr.expr * Symexpr.expr) list;
      (** per node: execution time on the 2D and the 1D array, as
          functions of the range variable — enough for an independent
          checker to replay the whole timeline at any point *)
  mk_bound : float;  (** upper bound on the unrolled-window makespan *)
  mk_exact : bool;
  mk_witness : Symexpr.point;
  mk_corners : (Symexpr.point * float) list;
      (** replayed makespan at each box corner *)
}

type t = {
  arch : string;
  model : string;
  batch : int;
  attention : attention;
  seq : int;  (** query length (meaningful for [Decode]) *)
  range : range;
  rvar : Symexpr.var;  (** the variable the range quantifies *)
  policy : policy;
  config : Transfusion.Tileseek.config;
      (** base tiling; under [Resident] its [m1]/[m0] are replaced by the
          symbolic resident split *)
  p_row : int;
  buffer_elements : int;
  checks : check list;
  schedule : schedule_cert option;
      (** [None] when certification refused before schedule derivation *)
  certified : bool;
  witness : Symexpr.point option;  (** refusal witness: a grid point at
          which the configuration is concretely infeasible *)
}

val certify :
  ?attention:attention ->
  ?batch:int ->
  ?seq:int ->
  ?policy:policy ->
  Tf_arch.Arch.t ->
  Tf_workloads.Model.t ->
  range ->
  t
(** Certify the model on the architecture over the range.  Defaults:
    [attention = Self], [batch = 64], [seq = 1] (decode query length),
    [policy = Fixed].  The tiling is the greedy one derived at the low
    end of the range.  Never raises on an uncertifiable input — refusal
    is a certificate with [certified = false] and a witness. *)

val attention_tag : attention -> string
val policy_tag : policy -> string

val name : t -> string
(** Context label used in diagnostics:
    [cert(cloud/T5/self 512:16384:512)]. *)

val diagnostics : t -> Diagnostic.t list
(** Failing checks as [E-CERT-*] errors, plus [W-CERT-LOOSE] for passing
    bounds that are only interval-sound (not attained) and [W-CERT-POINT]
    for a degenerate single-point range. *)

val to_json_string : t -> string
(** The [transfusion.cert/1] document.  Deterministic; numbers round-trip
    exactly (integers verbatim, other floats as %.17g). *)

val render : t -> string
(** Human-readable multi-line summary. *)
