open Tf_workloads
module Arch = Tf_arch.Arch
module Dag = Tf_dag.Dag
module S = Symexpr
module Buffer_req = Transfusion.Buffer_req
module Cascades = Transfusion.Cascades
module Dpipe = Transfusion.Dpipe
module Layer_costs = Transfusion.Layer_costs
module Tileseek = Transfusion.Tileseek

type range = { lo : int; hi : int; step : int }
type attention = Self | Causal | Decode
type policy = Fixed | Resident

type kind =
  | Divides of { q : int; fail_at : int option }
  | Bound of {
      cmp : [ `Le | `Ge ];
      expr : S.expr option;
      bound : float;
      exact : bool;
      witness : S.point;
      limit : float option;
    }
  | Eq of { got : float; want : float }
  | Acyclic

type check = { id : string; code : string; ok : bool; detail : string; kind : kind }
type instance_row = { i_node : int; i_epoch : int; i_res : Arch.resource }

type schedule_cert = {
  nodes : int;
  epochs : int;
  instances : instance_row list;
  edges : (int * int) list;
  op_times : (int * S.expr * S.expr) list;
  mk_bound : float;
  mk_exact : bool;
  mk_witness : S.point;
  mk_corners : (S.point * float) list;
}

type t = {
  arch : string;
  model : string;
  batch : int;
  attention : attention;
  seq : int;
  range : range;
  rvar : S.var;
  policy : policy;
  config : Tileseek.config;
  p_row : int;
  buffer_elements : int;
  checks : check list;
  schedule : schedule_cert option;
  certified : bool;
  witness : S.point option;
}

let attention_tag = function Self -> "self" | Causal -> "causal" | Decode -> "decode"
let policy_tag = function Fixed -> "fixed" | Resident -> "resident"

let name t =
  Printf.sprintf "cert(%s/%s/%s %d:%d:%d)" t.arch t.model (attention_tag t.attention) t.range.lo
    t.range.hi t.range.step

(* 2-adic valuation (trailing zero bits), defined for x >= 1. *)
let rec v2 x = if x land 1 = 1 then 0 else 1 + v2 (x lsr 1)

(* [q] divides every point of the grid iff it divides the first point and
   the step (two consecutive multiples pin the step).  When it does not,
   the smallest failing point is the first or the second grid point. *)
let divides_grid q (g : S.grid) =
  if q >= 1 && g.S.g_lo mod q = 0 && (g.S.g_hi = g.S.g_lo || g.S.g_step mod q = 0) then None
  else if q < 1 || g.S.g_lo mod q <> 0 then Some g.S.g_lo
  else Some (g.S.g_lo + g.S.g_step)

(* Is the balanced inner tile [Workload.default_m0] the same at every
   grid point?  default_m0 n = min(256, 2^v2(n)), so this is a question
   about the 2-adic valuation along an arithmetic progression:
   - v2 constant >= 8 everywhere: every tile is 256;
   - v2(lo) < v2(step): adding step multiples never disturbs the lower
     2-power, so v2 is constant at v2(lo);
   - otherwise v2(lo + step) differs from v2(lo) (equal valuations sum to
     a strictly higher one; a smaller step valuation caps the sum lower),
   so the second grid point witnesses a policy change. *)
let policy_m0 (g : S.grid) =
  if g.S.g_lo = g.S.g_hi then Ok (Workload.default_m0 g.S.g_lo)
  else
    let a = v2 g.S.g_lo and s = v2 g.S.g_step in
    if Stdlib.min a s >= 8 then Ok 256
    else if a < s then Ok (1 lsl a)
    else Error (g.S.g_lo + g.S.g_step)

(* The symbolic instance of the number domain every generic formula
   takes: Table 2 occupancy, the op table and the DPipe replay. *)
module Sym_num (B : sig
  val box : S.box
end) =
struct
  type t = S.t

  let of_int = S.int_ B.box
  let of_float = S.const B.box
  let add = S.add B.box
  let mul = S.mul B.box
  let div = S.div B.box
  let max = S.max_ B.box
end

let chk id code ok detail kind = { id; code; ok; detail; kind }

let certify ?(attention = Self) ?(batch = 64) ?(seq = 1) ?(policy = Fixed) (arch : Arch.t)
    (model : Model.t) (r : range) =
  let rg = S.grid ~lo:r.lo ~hi:r.hi ~step:r.step in
  let r = { r with hi = rg.S.g_hi } in
  let decode = attention = Decode in
  let causal = attention = Causal in
  let rvar = if decode then S.K else S.N in
  let box =
    if decode then { S.n = S.grid ~lo:seq ~hi:seq ~step:1; k = Some rg } else { S.n = rg; k = None }
  in
  let pt v = match rvar with S.N -> { S.pn = v; pk = None } | S.K -> { S.pn = seq; pk = Some v } in
  let module SN = Sym_num (struct
    let box = box
  end) in
  let cap = Arch.buffer_elements arch in
  let query_len = if decode then seq else r.lo in
  let w_lo = Workload.v ~batch model ~seq_len:query_len in
  let config, derive_checks =
    try (Tileseek.greedy ~kv_len:r.lo ~decode arch w_lo, [])
    with Invalid_argument msg ->
      ( { Tileseek.b = 1; d = 1; p = 1; m1 = 1; m0 = 1; s = 1 },
        [
          chk "tiling.derive" "E-CERT-TILE" false
            (Printf.sprintf "no feasible tiling at n=%d: %s" r.lo msg)
            (Eq { got = 0.; want = 1. });
        ] )
  in
  let p_row = if config.Tileseek.p >= 1 then Tileseek.p_row arch config else 1 in
  (* ---- resident-policy inner tile over the grid --------------------- *)
  let policy_result = match policy with Fixed -> Ok config.Tileseek.m0 | Resident -> policy_m0 rg in
  let policy_checks =
    match (policy, policy_result) with
    | Fixed, _ -> []
    | Resident, Ok m0 ->
        [
          chk "policy.m0-const" "E-CERT-STEP" true
            (Printf.sprintf "balanced inner tile m0 = %d at every grid point" m0)
            (Eq { got = float_of_int m0; want = float_of_int m0 });
        ]
    | Resident, Error wit ->
        [
          chk "policy.m0-const" "E-CERT-STEP" false
            (Printf.sprintf
               "balanced inner tile changes across the grid: m0(%d) = %d but m0(%d) = %d" r.lo
               (Workload.default_m0 r.lo) wit (Workload.default_m0 wit))
            (Eq
               {
                 got = float_of_int (Workload.default_m0 wit);
                 want = float_of_int (Workload.default_m0 r.lo);
               });
        ]
  in
  let sched_m0 = match policy_result with Ok m0 -> m0 | Error _ -> config.Tileseek.m0 in
  (* ---- tiling checks (Tiling_lint's rules, quantified) -------------- *)
  let positive =
    [
      ("b", config.Tileseek.b); ("d", config.Tileseek.d); ("p", config.Tileseek.p);
      ("m1", config.Tileseek.m1); ("m0", sched_m0); ("s", config.Tileseek.s); ("p_row", p_row);
    ]
  in
  let all_positive = List.for_all (fun (_, v) -> v >= 1) positive in
  let positive_check =
    chk "tile.positive" "E-CERT-TILE" all_positive
      (if all_positive then "every tile factor is positive"
       else
         String.concat ", "
           (List.filter_map
              (fun (l, v) -> if v < 1 then Some (Printf.sprintf "%s = %d" l v) else None)
              positive))
      (Eq { got = (if all_positive then 1. else 0.); want = 1. })
  in
  let const_divides id label tile total =
    let ok = tile >= 1 && tile <= total && total mod tile = 0 in
    chk id "E-CERT-DIVIDE" ok
      (Printf.sprintf "%s = %d %s %d" label tile (if ok then "divides" else "does not divide") total)
      (Eq { got = (if tile >= 1 then float_of_int (total mod tile) else -1.); want = 0. })
  in
  let kv_q =
    match policy with Fixed -> config.Tileseek.m1 * config.Tileseek.m0 | Resident -> sched_m0
  in
  let kv_fail = divides_grid kv_q rg in
  let kv_check =
    chk "tile.divide.kv" "E-CERT-DIVIDE" (kv_fail = None)
      (match kv_fail with
      | None ->
          Printf.sprintf "resident kv slice %d divides every grid point (%d | gcd(%d, %d))" kv_q
            kv_q r.lo r.step
      | Some x -> Printf.sprintf "resident kv slice %d does not divide grid point %d" kv_q x)
      (Divides { q = kv_q; fail_at = kv_fail })
  in
  let m0_fail = divides_grid sched_m0 rg in
  let m0_check =
    chk "sched.divide.m0" "E-CERT-DIVIDE" (m0_fail = None)
      (match m0_fail with
      | None -> Printf.sprintf "inner kv tile m0 = %d divides every grid point" sched_m0
      | Some x -> Printf.sprintf "inner kv tile m0 = %d does not divide grid point %d" sched_m0 x)
      (Divides { q = sched_m0; fail_at = m0_fail })
  in
  let p_check =
    if decode then
      let ok = config.Tileseek.p <= seq in
      chk "tile.p-le-n" "E-CERT-EXTENT" ok
        (Printf.sprintf "query tile p = %d %s the decode query length %d" config.Tileseek.p
           (if ok then "fits" else "exceeds")
           seq)
        (* ok iff p <= seq, phrased so that ok <-> got = want *)
        (Eq
           {
             got = float_of_int (Stdlib.min config.Tileseek.p seq);
             want = float_of_int config.Tileseek.p;
           })
    else
      let n = S.var box S.N in
      let b, wit, exact = S.inf box n in
      let ok = b >= float_of_int config.Tileseek.p in
      chk "tile.p-le-n" "E-CERT-EXTENT" ok
        (Printf.sprintf "query tile p = %d vs. shortest certified sequence %d" config.Tileseek.p
           r.lo)
        (Bound
           {
             cmp = `Ge;
             expr = Some (S.Var S.N);
             bound = b;
             exact;
             witness = wit;
             limit = Some (float_of_int config.Tileseek.p);
           })
  in
  let expected_p_row =
    Stdlib.max 1 (config.Tileseek.p / Tf_arch.Pe_array.rows arch.Arch.pe_2d)
  in
  let p_row_check =
    chk "tile.p-row" "E-CERT-EXTENT" (p_row = expected_p_row)
      (Printf.sprintf "p = %d over %d PE rows gives P' = %d" config.Tileseek.p
         (Tf_arch.Pe_array.rows arch.Arch.pe_2d)
         expected_p_row)
      (Eq { got = float_of_int p_row; want = float_of_int expected_p_row })
  in
  let tile_checks =
    derive_checks
    @ [ positive_check ]
    @ (if all_positive then
         [
           const_divides "tile.divide.b" "b" config.Tileseek.b batch;
           const_divides "tile.divide.d" "d" config.Tileseek.d model.Model.d_model;
           const_divides "tile.divide.s" "s" config.Tileseek.s model.Model.ffn_hidden;
           kv_check;
           m0_check;
           p_check;
           p_row_check;
         ]
       else [])
    @ policy_checks
  in
  (* ---- Table 2 occupancy on the symbolic domain --------------------- *)
  let occupancy_checks =
    if not all_positive then []
    else begin
      let module SB = Buffer_req.Gen (SN) in
      let c = S.int_ box in
      let kv_var = S.var box rvar in
      let m1_sym =
        match policy with
        | Fixed -> c config.Tileseek.m1
        | Resident -> S.div box kv_var (float_of_int sched_m0)
      in
      let gd =
        {
          SB.b = c config.Tileseek.b;
          d = c config.Tileseek.d;
          p = c config.Tileseek.p;
          m1 = m1_sym;
          m0 = c sched_m0;
          h = c model.Model.heads;
          e = c model.Model.head_dim;
          f = c model.Model.head_dim;
          s = c config.Tileseek.s;
          p_row = c p_row;
        }
      in
      let modules =
        [
          ("qkv", SB.qkv gd);
          ("mha", if decode then SB.mha_decode gd else SB.mha gd);
          ("add_layernorm", SB.add_layernorm gd);
          ("ffn", SB.ffn gd);
          ("worst", if decode then SB.worst_decode gd else SB.worst gd);
        ]
      in
      List.map
        (fun (label, (x : S.t)) ->
          let b, wit, exact = S.sup box x in
          let ok = b <= float_of_int cap in
          chk
            (Printf.sprintf "buffer.%s" label)
            "E-CERT-BUFFER" ok
            (Printf.sprintf "%s occupancy peaks at %.0f elements (buffer holds %d)" label b cap)
            (Bound
               {
                 cmp = `Le;
                 expr = Some x.S.expr;
                 bound = b;
                 exact;
                 witness = wit;
                 limit = Some (float_of_int cap);
               }))
        modules
    end
  in
  (* ---- DPipe schedule structure + symbolic timeline ----------------- *)
  let sched_checks, schedule =
    if (not all_positive) || m0_fail <> None
       || (match policy_result with Error _ -> true | Ok _ -> false)
    then ([], None)
    else begin
      (* The query sequence, which is also the key/value length projected
         this pass: the range variable, or a decode step's fixed query. *)
      let n_ref = r.hi in
      let q_ref = if decode then seq else n_ref in
      let w_ref = Workload.v ~batch model ~seq_len:q_ref in
      let { Layer_costs.dag = g; plan; totals; load; matrix; extents = extents_ref; _ } =
        Layer_costs.problem ~m0:sched_m0 ~kv_len:n_ref ~kv_proj_len:q_ref ~causal w_ref
          (Cascades.full_layer model.Model.activation)
      in
      let nodes = List.length (Dag.nodes g) in
      let sched = Dpipe.schedule arch ~load ~matrix plan in
      let preds = Dag.preds g in
      let edges =
        List.concat_map (fun v -> List.map (fun u -> (u, v)) (preds v)) (Dag.nodes g)
      in
      (* The same op table at the symbolic instance, over the range
         variable instead of its reference point. *)
      let module T = Layer_costs.Table (SN) in
      let q = if decode then S.int_ box seq else S.var box S.N in
      let row =
        T.row ~batch ~m0:sched_m0 ~extents:extents_ref ~seq:q ~kv_len:(S.var box rvar)
          ~kv_proj_len:q ~causal
      in
      let node_time res =
        Array.mapi
          (fun n { Layer_costs.op; _ } -> T.node_time arch ~matrix:(matrix n) (snd (row op)) res)
          totals
      in
      let time2 = node_time Arch.Pe_2d and time1 = node_time Arch.Pe_1d in
      let structure =
        chk "sched.structure" "E-CERT-SCHED"
          (List.length sched.Dpipe.assignments = nodes * sched.Dpipe.epochs_unrolled)
          (Printf.sprintf "%d instances cover %d nodes x %d epochs"
             (List.length sched.Dpipe.assignments)
             nodes sched.Dpipe.epochs_unrolled)
          (Eq
             {
               got = float_of_int (List.length sched.Dpipe.assignments);
               want = float_of_int (nodes * sched.Dpipe.epochs_unrolled);
             })
      in
      let module FR = Dpipe.Replay (Transfusion.Num_domain.Float) in
      match FR.replay ~preds ~time:(Dpipe.node_latency arch ~load ~matrix) sched with
      | Error msg ->
          ([ structure; chk "sched.acyclic" "E-CERT-SCHED" false msg Acyclic ], None)
      | Ok (finsts, fmk) ->
          let acyclic =
            chk "sched.acyclic" "E-CERT-SCHED" true
              "the feed order is a topological order of the instance precedence graph" Acyclic
          in
          let bit_equal =
            fmk = sched.Dpipe.makespan_cycles
            && List.length finsts = List.length sched.Dpipe.assignments
            && List.for_all2
                 (fun (i : FR.instance) (a : Dpipe.assignment) ->
                   i.FR.node = a.Dpipe.node && i.FR.epoch = a.Dpipe.epoch
                   && i.FR.resource = a.Dpipe.resource
                   && i.FR.start_t = a.Dpipe.start_cycle
                   && i.FR.end_t = a.Dpipe.end_cycle)
                 finsts sched.Dpipe.assignments
          in
          let replay_float =
            chk "sched.replay-float" "E-CERT-SCHED" bit_equal
              "structure-only replay reproduces the DP timeline bit-for-bit"
              (Eq { got = fmk; want = sched.Dpipe.makespan_cycles })
          in
          let module SR = Dpipe.Replay (SN) in
          let sym_time n res = match res with Arch.Pe_2d -> time2.(n) | Arch.Pe_1d -> time1.(n) in
          let sym_checks, schedule =
            match SR.replay ~preds ~time:sym_time sched with
            | Error msg -> ([ chk "sched.replay-sym" "E-CERT-SCHED" false msg Acyclic ], None)
            | Ok (_, smk) ->
                (* Corner values come from the compositional cache —
                   the replayed timeline is a heavily shared DAG, so
                   re-walking its expression would be exponential. *)
                let mk_corners =
                  List.fold_left
                    (fun acc (p, v) -> if List.mem_assoc p acc then acc else acc @ [ (p, v) ])
                    [] (S.corner_values box smk)
                in
                let ref_pt = pt r.hi in
                let at_ref = List.assoc ref_pt mk_corners in
                let replay_sym =
                  chk "sched.replay-sym" "E-CERT-SCHED"
                    (at_ref = sched.Dpipe.makespan_cycles)
                    (Printf.sprintf
                       "symbolic makespan at the reference point evaluates to %.17g (DP: %.17g)"
                       at_ref sched.Dpipe.makespan_cycles)
                    (Eq { got = at_ref; want = sched.Dpipe.makespan_cycles })
                in
                let mk_bound, mk_witness, mk_exact = S.sup box smk in
                let makespan =
                  chk "sched.makespan" "W-CERT-LOOSE" true
                    (Printf.sprintf "unrolled-window makespan peaks at %.0f cycles" mk_bound)
                    (Bound
                       {
                         cmp = `Le;
                         expr = None;
                         bound = mk_bound;
                         exact = mk_exact;
                         witness = mk_witness;
                         limit = None;
                       })
                in
                ( [ replay_sym; makespan ],
                  Some
                    {
                      nodes;
                      epochs = sched.Dpipe.epochs_unrolled;
                      instances =
                        List.map
                          (fun (a : Dpipe.assignment) ->
                            { i_node = a.Dpipe.node; i_epoch = a.Dpipe.epoch; i_res = a.Dpipe.resource })
                          sched.Dpipe.assignments;
                      edges;
                      op_times =
                        List.init nodes (fun n -> (n, time2.(n).S.expr, time1.(n).S.expr));
                      mk_bound;
                      mk_exact;
                      mk_witness;
                      mk_corners;
                    } )
          in
          (structure :: acyclic :: replay_float :: sym_checks, schedule)
    end
  in
  let checks = tile_checks @ occupancy_checks @ sched_checks in
  let certified = List.for_all (fun c -> c.ok) checks in
  let witness =
    if certified then None
    else
      List.find_opt (fun c -> not c.ok) checks
      |> Option.map (fun c ->
             match c.kind with
             | Divides { fail_at = Some x; _ } -> pt x
             | Bound { witness; _ } -> witness
             | Divides _ | Eq _ | Acyclic -> pt rg.S.g_lo)
  in
  {
    arch = arch.Arch.name;
    model = model.Model.name;
    batch;
    attention;
    seq;
    range = r;
    rvar;
    policy;
    config;
    p_row;
    buffer_elements = cap;
    checks;
    schedule;
    certified;
    witness;
  }

(* ------------------------------------------------------------------ *)
(* Diagnostics                                                         *)

let diagnostics t =
  let ctx = name t in
  let failures =
    List.filter_map
      (fun c ->
        if c.ok then None
        else Some (Diagnostic.error ~context:ctx ~code:c.code (c.id ^ ": " ^ c.detail)))
      t.checks
  in
  let loose =
    List.filter_map
      (fun c ->
        match c.kind with
        | Bound { exact = false; _ } when c.ok ->
            Some
              (Diagnostic.warning ~context:ctx ~code:"W-CERT-LOOSE"
                 (Printf.sprintf "%s: bound is interval-sound but not attained at a grid point"
                    c.id))
        | _ -> None)
      t.checks
  in
  let degenerate =
    if t.range.lo = t.range.hi then
      [
        Diagnostic.warning ~context:ctx ~code:"W-CERT-POINT"
          "range is a single point; a point lint covers it";
      ]
    else []
  in
  failures @ loose @ degenerate

(* ------------------------------------------------------------------ *)
(* JSON emission (transfusion.cert/1)                                  *)

(* The certificate carries its own emitter, because its numbers print
   as %.17g (Tf_json's %.12g would not round-trip the bounds); strings
   go through the shared Tf_json.escape.  The independent checker
   (Cert_check) reads them back with Tf_json.parse and shares no code
   with this module. *)

let num = S.num_to_string

let point_json (p : S.point) =
  match p.S.pk with
  | None -> Printf.sprintf "{\"n\":%d}" p.S.pn
  | Some k -> Printf.sprintf "{\"n\":%d,\"k\":%d}" p.S.pn k

let kind_json = function
  | Divides { q; fail_at } ->
      Printf.sprintf "\"kind\":\"divides\",\"q\":%d,\"fail_at\":%s" q
        (match fail_at with None -> "null" | Some x -> string_of_int x)
  | Bound { cmp; expr; bound; exact; witness; limit } ->
      Printf.sprintf
        "\"kind\":\"bound\",\"cmp\":%s,\"expr\":%s,\"bound\":%s,\"exact\":%b,\"witness\":%s,\"limit\":%s"
        (match cmp with `Le -> "\"le\"" | `Ge -> "\"ge\"")
        (match expr with None -> "null" | Some e -> S.expr_to_json e)
        (num bound) exact (point_json witness)
        (match limit with None -> "null" | Some l -> num l)
  | Eq { got; want } -> Printf.sprintf "\"kind\":\"eq\",\"got\":%s,\"want\":%s" (num got) (num want)
  | Acyclic -> "\"kind\":\"acyclic\""

let check_json c =
  Printf.sprintf "{\"id\":\"%s\",\"code\":\"%s\",\"ok\":%b,\"detail\":\"%s\",%s}"
    (Tf_json.escape c.id) (Tf_json.escape c.code) c.ok (Tf_json.escape c.detail) (kind_json c.kind)

let res_tag = function Arch.Pe_2d -> "\"2d\"" | Arch.Pe_1d -> "\"1d\""

let schedule_json s =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Printf.sprintf "{\"nodes\":%d,\"epochs\":%d,\"instances\":[" s.nodes s.epochs);
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "[%d,%d,%s]" r.i_node r.i_epoch (res_tag r.i_res)))
    s.instances;
  Buffer.add_string b "],\"edges\":[";
  List.iteri
    (fun i (u, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "[%d,%d]" u v))
    s.edges;
  Buffer.add_string b "],\"op_times\":[";
  List.iteri
    (fun i (n, t2, t1) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"node\":%d,\"pe2d\":%s,\"pe1d\":%s}" n (S.expr_to_json t2)
           (S.expr_to_json t1)))
    s.op_times;
  Buffer.add_string b
    (Printf.sprintf "],\"makespan\":{\"bound\":%s,\"exact\":%b,\"witness\":%s,\"corners\":["
       (num s.mk_bound) s.mk_exact (point_json s.mk_witness));
  List.iteri
    (fun i (p, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "{\"at\":%s,\"value\":%s}" (point_json p) (num v)))
    s.mk_corners;
  Buffer.add_string b "]}}";
  Buffer.contents b

let to_json_string t =
  let b = Buffer.create 8192 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"schema\":\"transfusion.cert/1\",\"arch\":\"%s\",\"model\":\"%s\",\"batch\":%d,\"attention\":\"%s\",\"seq\":%d,"
       (Tf_json.escape t.arch) (Tf_json.escape t.model) t.batch (attention_tag t.attention) t.seq);
  Buffer.add_string b
    (Printf.sprintf "\"range\":{\"var\":\"%s\",\"lo\":%d,\"hi\":%d,\"step\":%d},"
       (match t.rvar with S.N -> "n" | S.K -> "k")
       t.range.lo t.range.hi t.range.step);
  Buffer.add_string b
    (Printf.sprintf
       "\"policy\":\"%s\",\"tiling\":{\"b\":%d,\"d\":%d,\"p\":%d,\"m1\":%d,\"m0\":%d,\"s\":%d,\"p_row\":%d},"
       (policy_tag t.policy) t.config.Tileseek.b t.config.Tileseek.d t.config.Tileseek.p
       t.config.Tileseek.m1 t.config.Tileseek.m0 t.config.Tileseek.s t.p_row);
  Buffer.add_string b
    (Printf.sprintf "\"buffer_elements\":%d,\"certified\":%b,\"witness\":%s,\"checks\":["
       t.buffer_elements t.certified
       (match t.witness with None -> "null" | Some p -> point_json p));
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (check_json c))
    t.checks;
  Buffer.add_string b "],\"schedule\":";
  (match t.schedule with
  | None -> Buffer.add_string b "null"
  | Some s -> Buffer.add_string b (schedule_json s));
  Buffer.add_char b '}';
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Human rendering                                                     *)

let point_str (p : S.point) =
  match p.S.pk with
  | None -> Printf.sprintf "n=%d" p.S.pn
  | Some k -> Printf.sprintf "n=%d,k=%d" p.S.pn k

let render t =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%s: %s over %d grid points (step %d, policy %s)\n" (name t)
       (if t.certified then "CERTIFIED" else "REFUSED")
       (((t.range.hi - t.range.lo) / t.range.step) + 1)
       t.range.step (policy_tag t.policy));
  List.iter
    (fun c ->
      let extra =
        match c.kind with
        | Bound { bound; witness; exact; limit; _ } ->
            Printf.sprintf " [%s %s at %s%s%s]"
              (match c.kind with Bound { cmp = `Ge; _ } -> "inf" | _ -> "sup")
              (num bound) (point_str witness)
              (match limit with
              | Some l -> Printf.sprintf ", limit %s" (num l)
              | None -> "")
              (if exact then "" else ", loose")
        | Divides { q; fail_at = Some x } -> Printf.sprintf " [%d does not divide %d]" q x
        | _ -> ""
      in
      Buffer.add_string b
        (Printf.sprintf "  %s %-18s %s%s\n" (if c.ok then "ok " else "FAIL") c.id c.detail extra))
    t.checks;
  (match t.witness with
  | Some p -> Buffer.add_string b (Printf.sprintf "  refusal witness: %s\n" (point_str p))
  | None -> ());
  Buffer.contents b
