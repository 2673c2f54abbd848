(* Tests for the experiment harness: the figure generators produce
   well-formed series and the headline invariants hold on the quick
   sweep. *)

module E = Tf_experiments
module Strategies = Transfusion.Strategies
open Tf_workloads

let test_geomean () =
  Alcotest.(check (float 1e-12)) "empty" 1. (E.Exp_common.geomean []);
  Alcotest.(check (float 1e-12)) "singleton" 3. (E.Exp_common.geomean [ 3. ]);
  Alcotest.(check (float 1e-9)) "pair" 2. (E.Exp_common.geomean [ 1.; 4. ]);
  Alcotest.check_raises "non-positive" (Invalid_argument "Exp_common.geomean: non-positive")
    (fun () -> ignore (E.Exp_common.geomean [ 1.; 0. ]))

let test_seq_sweep () =
  Alcotest.(check int) "full sweep" 6 (List.length (E.Exp_common.seq_sweep ~quick:false));
  Alcotest.(check int) "quick sweep" 3 (List.length (E.Exp_common.seq_sweep ~quick:true));
  Alcotest.(check (list int)) "full values"
    [ 1024; 4096; 16384; 65536; 262144; 1048576 ]
    (List.map snd (E.Exp_common.seq_sweep ~quick:false))

let test_memo () =
  let arch = Tf_arch.Presets.edge in
  let w = Workload.v Presets.t5 ~seq_len:1024 in
  let a = E.Exp_common.evaluate ~tileseek_iterations:40 arch w Strategies.Fusemax in
  let b = E.Exp_common.evaluate ~tileseek_iterations:40 arch w Strategies.Fusemax in
  Alcotest.(check bool) "memoised (physical equality)" true (a == b)

let test_memo_key_includes_budget () =
  (* Regression: the cache key once omitted the TileSeek budget, so an
     evaluation at one budget was served to callers asking for another.
     Distinct budgets must produce distinct cache entries. *)
  let arch = Tf_arch.Presets.edge in
  let w = Workload.v Presets.t5 ~seq_len:1024 in
  let a = E.Exp_common.evaluate ~tileseek_iterations:40 arch w Strategies.Transfusion in
  let b = E.Exp_common.evaluate ~tileseek_iterations:12 arch w Strategies.Transfusion in
  Alcotest.(check bool) "different budgets are distinct entries" true (not (a == b));
  let a' = E.Exp_common.evaluate ~tileseek_iterations:40 arch w Strategies.Transfusion in
  Alcotest.(check bool) "original budget still cached" true (a == a')

let test_arch_fingerprint () =
  (* Regression: the DPipe cache keyed archs by [name] alone, so ablation
     variants sharing a preset's name collided and the cached schedule
     depended on evaluation order. *)
  let base = Tf_arch.Presets.edge in
  let variant =
    Tf_arch.Arch.v ~name:base.Tf_arch.Arch.name ~clock_hz:base.Tf_arch.Arch.clock_hz
      ~element_bytes:base.Tf_arch.Arch.element_bytes
      ~vector_eff_2d:base.Tf_arch.Arch.vector_eff_2d ~matrix_eff_1d:0.5
      ~energy:base.Tf_arch.Arch.energy ~pe_2d:base.Tf_arch.Arch.pe_2d
      ~pe_1d:base.Tf_arch.Arch.pe_1d ~buffer_bytes:base.Tf_arch.Arch.buffer_bytes
      ~dram_bw_bytes_per_s:base.Tf_arch.Arch.dram_bw_bytes_per_s ()
  in
  let fp = Strategies.Private.arch_fingerprint in
  Alcotest.(check string) "same arch, same fingerprint" (fp base) (fp base);
  Alcotest.(check bool) "same name, different eff, distinct fingerprints" true
    (fp base <> fp variant)

(* Every arch field a result reads is in the fingerprint: for each
   preset, each one-field change keys apart from the preset and from
   every other change, so the summary memo answers the changed arch with
   its own result.  Regression: the fingerprint left out
   [element_bytes], the array shapes (rows, not just the PE count) and
   the energy table, and answered an fp32 arch with the fp16 result. *)
let one_field_variants (a : Tf_arch.Arch.t) =
  let energy field (f : Tf_arch.Energy_table.t -> Tf_arch.Energy_table.t) =
    (field, { a with Tf_arch.Arch.energy = f a.Tf_arch.Arch.energy })
  in
  let reshape (pe : Tf_arch.Pe_array.t) =
    match pe.Tf_arch.Pe_array.shape with
    | Tf_arch.Pe_array.Two_d (r, c) -> { pe with shape = Two_d (2 * r, c / 2) }
    | Tf_arch.Pe_array.One_d w -> { pe with shape = One_d (2 * w) }
  in
  [
    ("name", { a with Tf_arch.Arch.name = a.Tf_arch.Arch.name ^ "'" });
    ("pe_2d shape, same PE count", { a with pe_2d = reshape a.pe_2d });
    ("pe_1d width", { a with pe_1d = reshape a.pe_1d });
    ("buffer_bytes", { a with buffer_bytes = 2 * a.buffer_bytes });
    ("dram_bw", { a with dram_bw_bytes_per_s = 2. *. a.dram_bw_bytes_per_s });
    ("clock_hz", { a with clock_hz = 2. *. a.clock_hz });
    ("element_bytes", { a with element_bytes = 2 * a.element_bytes });
    ("vector_eff_2d", { a with vector_eff_2d = a.vector_eff_2d /. 2. });
    ("matrix_eff_1d", { a with matrix_eff_1d = a.matrix_eff_1d /. 2. });
    energy "energy dram" (fun e -> { e with dram_access_pj = 2. *. e.dram_access_pj });
    energy "energy buffer" (fun e -> { e with buffer_access_pj = 2. *. e.buffer_access_pj });
    energy "energy regfile" (fun e -> { e with regfile_access_pj = 2. *. e.regfile_access_pj });
    energy "energy mac" (fun e -> { e with mac_pj = 2. *. e.mac_pj });
    energy "energy vector" (fun e -> { e with vector_op_pj = 2. *. e.vector_op_pj });
  ]

let test_arch_fingerprint_every_field () =
  let fp = Strategies.Private.arch_fingerprint in
  let w = Workload.v ~batch:2 Presets.t5 ~seq_len:1024 in
  let tileseek_iterations = 4 in
  List.iter
    (fun (base : Tf_arch.Arch.t) ->
      let variants = one_field_variants base in
      let fps = fp base :: List.map (fun (_, a) -> fp a) variants in
      Alcotest.(check int)
        (base.Tf_arch.Arch.name ^ ": every one-field change fingerprints apart")
        (List.length fps)
        (List.length (List.sort_uniq String.compare fps));
      List.iter
        (fun strategy ->
          ignore (E.Exp_common.evaluate ~tileseek_iterations base w strategy : Strategies.result);
          List.iter
            (fun (field, a) ->
              let served = E.Exp_common.evaluate ~tileseek_iterations a w strategy in
              let direct, _ = Strategies.evaluate ~tileseek_iterations a w strategy in
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s/%s: summary memo serves the changed arch's result"
                   base.Tf_arch.Arch.name field (Strategies.name strategy))
                true (served = direct))
            variants)
        [ Strategies.Unfused; Strategies.Transfusion ])
    Tf_arch.Presets.all

let test_cache_key_distinct () =
  (* Regression: the summary-cache key used to be a concatenated string,
     which collides whenever adjacent numeric fields can trade digits.
     The structured key must distinguish every field combination. *)
  let k = E.Exp_common.cache_key ~tileseek_iterations:40 in
  let edge = Tf_arch.Presets.edge and cloud = Tf_arch.Presets.cloud in
  let w ~seq ~batch = Workload.v ~batch Presets.t5 ~seq_len:seq in
  let base = k edge (w ~seq:1024 ~batch:64) Strategies.Transfusion in
  Alcotest.(check bool) "equal inputs, equal key" true
    (base = k edge (w ~seq:1024 ~batch:64) Strategies.Transfusion);
  (* The string-key collision class: (seq, batch) digit reshuffles. *)
  Alcotest.(check bool) "seq/batch transposition" true
    (k edge (w ~seq:102 ~batch:464) Strategies.Transfusion
    <> k edge (w ~seq:1024 ~batch:64) Strategies.Transfusion);
  List.iter
    (fun (label, other) -> Alcotest.(check bool) label true (base <> other))
    [
      ("arch", k cloud (w ~seq:1024 ~batch:64) Strategies.Transfusion);
      ("model", k edge (Workload.v ~batch:64 Presets.bert ~seq_len:1024) Strategies.Transfusion);
      ("seq", k edge (w ~seq:2048 ~batch:64) Strategies.Transfusion);
      ("batch", k edge (w ~seq:1024 ~batch:32) Strategies.Transfusion);
      ("strategy", k edge (w ~seq:1024 ~batch:64) Strategies.Fusemax);
      ( "budget",
        E.Exp_common.cache_key ~tileseek_iterations:12 edge (w ~seq:1024 ~batch:64)
          Strategies.Transfusion );
    ]

let test_fig8_model_wise () =
  let points = E.Fig8_speedup.model_wise ~seq:1024 Tf_arch.Presets.edge in
  Alcotest.(check int) "five models" 5 (List.length points);
  List.iter
    (fun (p : E.Fig8_speedup.point) ->
      Alcotest.(check int) "five strategies" 5 (List.length p.E.Fig8_speedup.speedups);
      let unfused = List.assoc Strategies.Unfused p.E.Fig8_speedup.speedups in
      Alcotest.(check (float 1e-9)) "unfused normalised to 1" 1. unfused;
      List.iter
        (fun (_, s) -> Alcotest.(check bool) "speedups >= ~1" true (s > 0.95))
        p.E.Fig8_speedup.speedups)
    points

let test_fig10_ranges () =
  let points = E.Fig10_utilization.model_wise ~seq:1024 Tf_arch.Presets.edge in
  List.iter
    (fun (p : E.Fig10_utilization.point) ->
      List.iter
        (fun (_, u2, u1) ->
          Alcotest.(check bool) "2d util in range" true (u2 >= 0. && u2 <= 1.02);
          Alcotest.(check bool) "1d util in range" true (u1 >= 0. && u1 <= 1.02))
        p.E.Fig10_utilization.per_strategy)
    points

let test_fig12_energy () =
  let points = E.Fig12_energy.model_wise ~seq:1024 Tf_arch.Presets.edge in
  List.iter
    (fun (p : E.Fig12_energy.point) ->
      Alcotest.(check (float 1e-9)) "unfused is 1" 1.
        (List.assoc Strategies.Unfused p.E.Fig12_energy.energy);
      Alcotest.(check bool) "transfusion saves energy" true
        (List.assoc Strategies.Transfusion p.E.Fig12_energy.energy < 1.))
    points

let test_fig13_fractions () =
  let points =
    E.Fig13_breakdown.scaling ~quick:true [ Tf_arch.Presets.edge ] Presets.t5
  in
  Alcotest.(check int) "3 seqs x 2 strategies" 6 (List.length points);
  List.iter
    (fun (p : E.Fig13_breakdown.point) ->
      let total = List.fold_left (fun acc (_, f) -> acc +. f) 0. p.E.Fig13_breakdown.fractions in
      Alcotest.(check (float 1e-9)) "fractions sum to 1" 1. total;
      Alcotest.(check bool) "total positive" true (p.E.Fig13_breakdown.total_pj > 0.))
    points

let test_fig11_contributions () =
  let points = E.Fig11_contribution.scaling ~quick:true [ Tf_arch.Presets.edge ] Presets.t5 in
  List.iter
    (fun (p : E.Fig11_contribution.point) ->
      let total =
        List.fold_left
          (fun acc (e : Transfusion.Speedup.entry) -> acc +. e.Transfusion.Speedup.contribution)
          0. p.E.Fig11_contribution.entries
      in
      Alcotest.(check (float 1e-6)) "contributions sum to 1" 1. total)
    points

let test_roofline_rows () =
  let rows = E.Exp_roofline.run ~quick:true [ Tf_arch.Presets.cloud ] Presets.llama3 in
  (* 3 sequence points x (4 unfused modules + 1 fused phase). *)
  Alcotest.(check int) "row count" 15 (List.length rows);
  List.iter
    (fun (r : E.Exp_roofline.row) ->
      Alcotest.(check bool) "intensity positive" true (r.E.Exp_roofline.intensity > 0.);
      Alcotest.(check bool) "attainable in range" true
        (r.E.Exp_roofline.attainable > 0. && r.E.Exp_roofline.attainable <= 1.))
    rows;
  (* The unfused attention is memory-bound at batch 64 (the quadratic
     score traffic); the wide Llama3 linear layers are compute-bound. *)
  let bound name seq =
    (List.find
       (fun (r : E.Exp_roofline.row) ->
         r.E.Exp_roofline.module_name = name && r.E.Exp_roofline.seq = seq)
       rows)
      .E.Exp_roofline.bound
  in
  Alcotest.(check bool) "unfused MHA memory-bound" true (bound "MHA" "16K" = `Memory);
  Alcotest.(check bool) "QKV compute-bound" true (bound "QKV" "16K" = `Compute)

let test_headline_ordering () =
  (* The core qualitative reproduction: TransFusion never loses to a
     baseline across the quick sweep, and the geomeans are sorted the way
     the paper reports them (unfused >= flat >= fusemax >= layerfuse). *)
  List.iter
    (fun arch ->
      Alcotest.(check bool)
        (Printf.sprintf "ordering holds on %s" arch.Tf_arch.Arch.name)
        true
        (E.Headline.ordering_holds ~quick:true ~model:Presets.t5 arch);
      let s = E.Headline.compute ~quick:true ~model:Presets.t5 arch in
      Alcotest.(check bool) "vs unfused is the largest" true
        (s.E.Headline.vs_unfused >= s.E.Headline.vs_fusemax -. 1e-9);
      Alcotest.(check bool) "vs fusemax >= vs layerfuse" true
        (s.E.Headline.vs_fusemax >= s.E.Headline.vs_layerfuse -. 1e-9);
      Alcotest.(check bool) "all gains >= ~1" true (s.E.Headline.vs_layerfuse >= 0.99))
    [ Tf_arch.Presets.cloud; Tf_arch.Presets.edge ]

let test_edge_headline_band () =
  (* Paper: 2.2x geomean over FuseMax on edge.  Our simulator lands lower
     (the substitutions are documented in EXPERIMENTS.md) but the edge
     advantage must be clearly material. *)
  let s = E.Headline.compute ~quick:true ~model:Presets.llama3 Tf_arch.Presets.edge in
  Alcotest.(check bool) "edge vs fusemax > 1.2x" true (s.E.Headline.vs_fusemax > 1.2)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "tf_experiments"
    [
      ( "common",
        [
          quick "geomean" test_geomean;
          quick "sequence sweep" test_seq_sweep;
          quick "memoisation" test_memo;
          quick "memo key includes budget" test_memo_key_includes_budget;
          quick "arch fingerprint" test_arch_fingerprint;
          quick "arch fingerprint covers every field" test_arch_fingerprint_every_field;
          quick "cache key distinctness" test_cache_key_distinct;
        ] );
      ( "figures",
        [
          quick "fig8 model-wise" test_fig8_model_wise;
          quick "fig10 utilization ranges" test_fig10_ranges;
          quick "fig12 energy" test_fig12_energy;
          quick "fig13 fractions" test_fig13_fractions;
          quick "fig11 contributions" test_fig11_contributions;
          quick "roofline study" test_roofline_rows;
        ] );
      ( "headline",
        [
          quick "ordering invariant" test_headline_ordering;
          quick "edge band" test_edge_headline_band;
        ] );
    ]
