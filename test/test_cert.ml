(* Differential tests for the range certifier (Tf_analysis.Range_cert)
   and its independent checker (Tf_analysis.Cert_check).

   The certifier claims that a configuration is implementable at every
   grid point of a sequence-length range; these tests hold it to that
   claim concretely: sample grid points from a certified range and
   re-check each with the concrete pipeline (Buffer_req, Tiling_lint),
   require bit-exact agreement between the symbolic expressions and the
   concrete floats, and require every refusal witness to be concretely
   infeasible.  Every emitted certificate must also round-trip through
   the independent checker, and a tampered certificate must not. *)

module Model = Tf_workloads.Model
module Workload = Tf_workloads.Workload
module Buffer_req = Transfusion.Buffer_req
module Tileseek = Transfusion.Tileseek
module S = Tf_analysis.Symexpr
module RC = Tf_analysis.Range_cert
module CC = Tf_analysis.Cert_check
module Diagnostic = Tf_analysis.Diagnostic

let archs = Tf_arch.Presets.[ cloud; edge; edge_64 ]
let cloud = Tf_arch.Presets.cloud
let t5 = Tf_workloads.Presets.t5
let failf fmt = Printf.ksprintf (fun s -> Alcotest.fail s) fmt

(* All grid points of the certified range. *)
let grid_points (r : RC.range) =
  let rec go n acc = if n > r.hi then List.rev acc else go (n + r.step) (n :: acc) in
  go r.lo []

(* Up to [k] evenly spaced sample points, always including both ends. *)
let sample ?(k = 8) l =
  let n = List.length l in
  if n <= k then l
  else
    let a = Array.of_list l in
    List.init k (fun i -> a.(i * (n - 1) / (k - 1)))

let eval_at (cert : RC.t) v e =
  match cert.RC.rvar with
  | S.N -> S.eval ~n:(float_of_int v) e
  | S.K -> S.eval ~n:(float_of_int cert.RC.seq) ~k:(float_of_int v) e

let eval_witness (w : S.point) e =
  S.eval ~n:(float_of_int w.S.pn) ?k:(Option.map float_of_int w.S.pk) e

(* The inner kv tile the certificate actually scheduled with: under the
   Resident policy it is the balanced-m0 policy value, not the base
   config's — recover it from the sched.divide.m0 claim. *)
let sched_m0 (cert : RC.t) =
  match
    List.find_map
      (fun (c : RC.check) ->
        match (c.RC.id, c.RC.kind) with
        | "sched.divide.m0", RC.Divides { q; _ } -> Some q
        | _ -> None)
      cert.RC.checks
  with
  | Some q -> q
  | None -> cert.RC.config.Tileseek.m0

let concrete_dims (cert : RC.t) model n =
  let m0 = sched_m0 cert in
  let m1 =
    match cert.RC.policy with RC.Fixed -> cert.RC.config.Tileseek.m1 | RC.Resident -> n / m0
  in
  {
    Buffer_req.b = cert.RC.config.Tileseek.b;
    d = cert.RC.config.Tileseek.d;
    p = cert.RC.config.Tileseek.p;
    m1;
    m0;
    h = model.Model.heads;
    e = model.Model.head_dim;
    f = model.Model.head_dim;
    s = cert.RC.config.Tileseek.s;
    p_row = cert.RC.p_row;
  }

let find_check (cert : RC.t) id =
  match List.find_opt (fun (c : RC.check) -> c.RC.id = id) cert.RC.checks with
  | Some c -> c
  | None -> failf "certificate has no %S check" id

(* ------------------------------------------------------------------ *)
(* Per-check concrete validation at sampled grid points                *)

let check_claims_hold (cert : RC.t) pts =
  List.iter
    (fun (c : RC.check) ->
      match c.RC.kind with
      | RC.Divides { q; _ } when c.RC.ok ->
          List.iter
            (fun n ->
              if n mod q <> 0 then failf "%s: %d does not divide sampled point %d" c.RC.id q n)
            pts
      | RC.Divides _ -> ()
      | RC.Eq { got; want } ->
          if c.RC.ok <> (got = want) then
            failf "%s: ok=%b disagrees with got %.17g vs want %.17g" c.RC.id c.RC.ok got want
      | RC.Acyclic -> ()
      | RC.Bound { expr = None; _ } ->
          (* the makespan: validated by the independent checker's replay *)
          ()
      | RC.Bound { cmp; expr = Some e; bound; exact; witness; limit } ->
          List.iter
            (fun n ->
              let v = eval_at cert n e in
              let sound = match cmp with `Le -> v <= bound | `Ge -> v >= bound in
              if not sound then
                failf "%s: bound %.17g not sound at sampled point %d (value %.17g)" c.RC.id
                  bound n v)
            pts;
          (if exact then
             let wv = eval_witness witness e in
             if wv <> bound then
               failf "%s: exact bound %.17g not attained at its witness (got %.17g)" c.RC.id
                 bound wv);
          Option.iter
            (fun lim ->
              let holds = match cmp with `Le -> bound <= lim | `Ge -> bound >= lim in
              if holds <> c.RC.ok then
                failf "%s: ok=%b disagrees with bound %.17g vs limit %.17g" c.RC.id c.RC.ok
                  bound lim)
            limit)
    cert.RC.checks

(* Symbolic Table-2 occupancy must equal the concrete float computation
   bit-for-bit at every sampled point: the symbolic side evaluates
   Buffer_req.Gen, and the float API is Gen at float written out with
   the same operations in the same order (test_properties pins the two
   together). *)
let check_occupancy_differential (cert : RC.t) model pts =
  List.iter
    (fun label ->
      let c = find_check cert (Printf.sprintf "buffer.%s" label) in
      match c.RC.kind with
      | RC.Bound { expr = Some e; _ } ->
          List.iter
            (fun n ->
              let dims = concrete_dims cert model n in
              let concrete =
                match (label, cert.RC.attention) with
                | "worst", RC.Decode -> Buffer_req.worst_decode dims
                | "worst", _ -> Buffer_req.worst dims
                | "mha", RC.Decode -> Buffer_req.mha_decode dims
                | "mha", _ -> Buffer_req.mha dims
                | "qkv", _ -> Buffer_req.qkv dims
                | "add_layernorm", _ -> Buffer_req.add_layernorm dims
                | "ffn", _ -> Buffer_req.ffn dims
                | _ -> assert false
              in
              let symbolic = eval_at cert n e in
              if symbolic <> concrete then
                failf "buffer.%s at n=%d: symbolic %.17g <> concrete %.17g" label n symbolic
                  concrete)
            pts
      | _ -> failf "buffer.%s carries no expression" label)
    [ "qkv"; "mha"; "add_layernorm"; "ffn"; "worst" ]

(* A certified Fixed-policy range must be Tiling_lint-clean at every
   sampled point — the range certificate subsumes the point lints. *)
let check_lint_clean arch (cert : RC.t) model pts =
  List.iter
    (fun n ->
      let w = Workload.v ~batch:cert.RC.batch model ~seq_len:n in
      let diags = Tf_analysis.Tiling_lint.verify ~kv_len:n arch w cert.RC.config in
      if Diagnostic.has_errors diags then
        failf "certified range but Tiling_lint errors at n=%d: %s" n
          (String.concat "; " (List.map Diagnostic.render (Diagnostic.errors diags))))
    pts

(* A refusal witness must be concretely infeasible: the failing claim
   re-evaluates to a violation at the witness point. *)
let check_refusal_witness (cert : RC.t) =
  if cert.RC.witness = None then failf "refused certificate carries no witness";
  let failing = List.filter (fun (c : RC.check) -> not c.RC.ok) cert.RC.checks in
  if failing = [] then failf "refused certificate has no failing check";
  let g =
    S.grid ~lo:cert.RC.range.RC.lo ~hi:cert.RC.range.RC.hi ~step:cert.RC.range.RC.step
  in
  List.iter
    (fun (c : RC.check) ->
      match c.RC.kind with
      | RC.Divides { q; fail_at = Some x } ->
          if x mod q = 0 then failf "%s: claimed witness %d is divisible by %d" c.RC.id x q;
          if not (S.grid_mem g x) then failf "%s: witness %d is off-grid" c.RC.id x
      | RC.Divides { fail_at = None; _ } -> failf "%s failed without a witness" c.RC.id
      | RC.Bound { cmp; expr = Some e; bound; witness; limit = Some lim; _ } ->
          let v = eval_witness witness e in
          let violated = match cmp with `Le -> v > lim | `Ge -> v < lim in
          if not violated then
            failf
              "%s: witness does not concretely violate the limit (value %.17g, limit %.17g, \
               bound %.17g)"
              c.RC.id v lim bound
      | RC.Bound _ | RC.Eq _ | RC.Acyclic -> ())
    failing

(* ------------------------------------------------------------------ *)
(* The property                                                        *)

type case = {
  arch : Tf_arch.Arch.t;
  model : Model.t;
  batch : int;
  attention : RC.attention;
  policy : RC.policy;
  range : RC.range;
}

let gen_case r =
  let lo = 1 lsl Qgen.range r 6 10 in
  let count = Qgen.range r 1 8 in
  let step = Qgen.choose r [ lo; lo; Stdlib.max 64 (lo / 2); lo + 32 ] in
  {
    arch = Qgen.choose r archs;
    model = Qgen.model r;
    batch = 1 lsl Qgen.int r 4;
    attention = Qgen.choose r [ RC.Self; RC.Self; RC.Causal; RC.Decode ];
    policy = Qgen.choose r [ RC.Fixed; RC.Fixed; RC.Resident ];
    range = { RC.lo; hi = lo * count; step };
  }

let print_case c =
  Printf.sprintf "%s %s batch=%d %s/%s %d:%d:%d" c.arch.Tf_arch.Arch.name c.model.Model.name
    c.batch (RC.attention_tag c.attention) (RC.policy_tag c.policy) c.range.RC.lo
    c.range.RC.hi c.range.RC.step

let prop_differential c =
  let seq = match c.attention with RC.Decode -> 64 | _ -> 1 in
  let cert =
    RC.certify ~attention:c.attention ~batch:c.batch ~seq ~policy:c.policy c.arch c.model
      c.range
  in
  (* every certificate, certified or refused, passes the independent checker *)
  (match CC.validate (RC.to_json_string cert) with
  | Ok _ -> ()
  | Error problems -> failf "checker rejects own certificate: %s" (String.concat "; " problems));
  let pts = sample (grid_points cert.RC.range) in
  check_claims_hold cert pts;
  if cert.RC.certified then begin
    check_occupancy_differential cert c.model pts;
    match (c.policy, c.attention) with
    | RC.Fixed, (RC.Self | RC.Causal) -> check_lint_clean c.arch cert c.model pts
    | _ -> ()
  end
  else check_refusal_witness cert

let test_differential () =
  Qgen.run ~count:40 ~print:print_case ~gen:gen_case
    "certified ranges agree with the concrete pipeline" prop_differential

(* ------------------------------------------------------------------ *)
(* Deterministic cases                                                 *)

let t5_band () =
  let cert = RC.certify cloud t5 { RC.lo = 512; hi = 16384; step = 512 } in
  if not cert.RC.certified then failf "T5 512:16384:512 on cloud should certify";
  if cert.RC.schedule = None then failf "certified T5 band carries no schedule section";
  let pts = sample (grid_points cert.RC.range) in
  check_claims_hold cert pts;
  check_occupancy_differential cert t5 pts;
  check_lint_clean cloud cert t5 pts

let ragged_step_refusal () =
  (* grid 512, 1056, 1600: the greedy kv tile at 512 cannot divide 1056 *)
  let cert = RC.certify cloud t5 { RC.lo = 512; hi = 2048; step = 544 } in
  if cert.RC.certified then failf "ragged step 544 should refuse";
  check_refusal_witness cert;
  (* the witness is concretely infeasible for the point lint too *)
  match cert.RC.witness with
  | Some { S.pn; _ } ->
      let w = Workload.v ~batch:cert.RC.batch t5 ~seq_len:pn in
      let diags = Tf_analysis.Tiling_lint.verify ~kv_len:pn cloud w cert.RC.config in
      if not (Diagnostic.has_errors diags) then
        failf "refusal witness n=%d passes the concrete point lint" pn
  | None -> failf "no witness"

let resident_overflow_refusal () =
  (* keeping 16K of kv resident cannot fit the cloud buffer *)
  let cert =
    RC.certify ~policy:RC.Resident cloud t5 { RC.lo = 512; hi = 16384; step = 512 }
  in
  if cert.RC.certified then failf "resident 16K band should refuse";
  let c = find_check cert "buffer.worst" in
  if c.RC.ok then failf "resident refusal should come from buffer.worst";
  match (c.RC.kind, cert.RC.witness) with
  | RC.Bound { witness; _ }, Some _ ->
      let dims = concrete_dims cert t5 witness.S.pn in
      let cap = float_of_int cert.RC.buffer_elements in
      if not (Buffer_req.worst dims > cap) then
        failf "witness n=%d concretely fits the buffer (%.0f <= %.0f)" witness.S.pn
          (Buffer_req.worst dims) cap
  | _ -> failf "buffer.worst carries no bound witness"

let tampered_certificate_rejected () =
  let cert = RC.certify cloud t5 { RC.lo = 512; hi = 4096; step = 512 } in
  let json = RC.to_json_string cert in
  (match CC.validate json with
  | Ok _ -> ()
  | Error p -> failf "pristine certificate rejected: %s" (String.concat "; " p));
  (* splice [into] over the first occurrence of [from] *)
  let tamper ~what ~from ~into =
    let flen = String.length from in
    let rec find i =
      if i + flen > String.length json then None
      else if String.sub json i flen = from then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> failf "tamper target %S not found" from
    | Some i -> (
        let doctored =
          String.sub json 0 i ^ into ^ String.sub json (i + flen) (String.length json - i - flen)
        in
        match CC.validate doctored with
        | Ok _ -> failf "checker accepted a certificate with tampered %s" what
        | Error _ -> ())
  in
  tamper ~what:"schema" ~from:"transfusion.cert/1" ~into:"transfusion.cert/9";
  tamper ~what:"grid step" ~from:"\"step\":512" ~into:"\"step\":511"

let exp_guard_smoke () =
  Tf_experiments.Exp_common.certify_seq_band [ cloud ] t5 ~seqs:[ 1024; 2048 ]

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "tf_cert"
    [
      ("differential", [ quick "random ranges vs concrete pipeline" test_differential ]);
      ( "deterministic",
        [
          quick "T5 cloud band certifies and agrees pointwise" t5_band;
          quick "ragged step refuses with infeasible witness" ragged_step_refusal;
          quick "resident overflow refuses at the far corner" resident_overflow_refusal;
          quick "tampered certificates are rejected" tampered_certificate_rejected;
          quick "experiment sweep guard certifies its band" exp_guard_smoke;
        ] );
    ]
