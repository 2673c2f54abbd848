(* Tests for the Table 2 buffer-requirement formulas. *)

module Buffer_req = Transfusion.Buffer_req

let dims ?(b = 2) ?(d = 8) ?(p = 16) ?(m1 = 2) ?(m0 = 4) ?(h = 2) ?(e = 4) ?(f = 4) ?(s = 32)
    ?(p_row = 2) () =
  { Buffer_req.b; d; p; m1; m0; h; e; f; s; p_row }

(* Hand-computed instances of the Table 2 formulas. *)

let test_qkv_formula () =
  (* B*D*(4P + 3*M1*M0) + 3*D*H*E + 2*B*H*P
     = 2*8*(64 + 24) + 3*8*2*4 + 2*2*2*16 = 1408 + 192 + 128 = 1728. *)
  Alcotest.(check (float 0.)) "qkv" 1728. (Buffer_req.qkv (dims ()))

let test_mha_formula () =
  (* B*H*E*(P + 2*M1*M0) + B*H*P*(2 + 2F) + 4*M0*P' + 18*P'
     = 2*2*4*(16 + 16) + 2*2*16*(2 + 8) + 4*4*2 + 36 = 512 + 640 + 32 + 36 = 1220. *)
  Alcotest.(check (float 0.)) "mha" 1220. (Buffer_req.mha (dims ()))

let test_layernorm_formula () =
  (* 3*B*H*F*P + 4*H*F*P' = 3*2*2*4*16 + 4*2*4*2 = 768 + 64 = 832. *)
  Alcotest.(check (float 0.)) "layernorm" 832. (Buffer_req.add_layernorm (dims ()))

let test_ffn_formula () =
  (* H*F*(2*B*P + S) + S*(P + 2) + 2*S*P'
     = 2*4*(64 + 32) + 32*18 + 2*32*2 = 768 + 576 + 128 = 1472. *)
  Alcotest.(check (float 0.)) "ffn" 1472. (Buffer_req.ffn (dims ()))

let test_worst_and_fits () =
  let d = dims () in
  Alcotest.(check (float 0.)) "worst is max" 1728. (Buffer_req.worst d);
  Alcotest.(check bool) "fits in 2000" true (Buffer_req.fits ~buffer_elements:2000 d);
  Alcotest.(check bool) "does not fit in 1000" false (Buffer_req.fits ~buffer_elements:1000 d)

let test_monotonic_in_p () =
  let base = Buffer_req.worst (dims ~p:8 ()) in
  let bigger = Buffer_req.worst (dims ~p:32 ()) in
  Alcotest.(check bool) "bigger tile needs more buffer" true (bigger > base)

let test_of_workload () =
  let w = Tf_workloads.Workload.v Tf_workloads.Presets.bert ~seq_len:4096 in
  let d = Buffer_req.of_workload w ~b:1 ~d:128 ~p:256 ~m1:2 ~m0:128 ~p_row:1 ~s:512 in
  Alcotest.(check int) "h from model" 12 d.Buffer_req.h;
  Alcotest.(check int) "e from model" 64 d.Buffer_req.e;
  Alcotest.(check int) "d is the tile" 128 d.Buffer_req.d;
  let raises label f =
    Alcotest.(check bool) label true (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  raises "b must divide batch" (fun () ->
      Buffer_req.of_workload w ~b:3 ~d:128 ~p:16 ~m1:1 ~m0:16 ~p_row:1 ~s:16);
  raises "m1*m0 must divide seq" (fun () ->
      Buffer_req.of_workload w ~b:1 ~d:128 ~p:16 ~m1:3 ~m0:1024 ~p_row:1 ~s:16);
  raises "non-positive" (fun () ->
      Buffer_req.of_workload w ~b:1 ~d:128 ~p:0 ~m1:1 ~m0:16 ~p_row:1 ~s:16)

(* Every Table 2 requirement is positive and [worst] dominates each of them.
   The name is kept short so the runner prints it in full. *)
let prop_formulas_positive =
  QCheck.Test.make ~name:"all buffer requirements" ~count:200
    QCheck.(
      quad (int_range 1 8) (int_range 1 64) (int_range 1 256) (pair (int_range 1 8) (int_range 1 64)))
    (fun (b, d, p, (m1, m0)) ->
      let dims = dims ~b ~d ~p ~m1 ~m0 () in
      let values =
        [ Buffer_req.qkv dims; Buffer_req.mha dims; Buffer_req.add_layernorm dims; Buffer_req.ffn dims ]
      in
      List.for_all (fun v -> v > 0.) values
      && List.for_all (fun v -> Buffer_req.worst dims >= v) values)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "transfusion_buffer_req"
    [
      ( "buffer_req (Table 2)",
        [
          quick "QKV formula" test_qkv_formula;
          quick "MHA formula" test_mha_formula;
          quick "LayerNorm formula" test_layernorm_formula;
          quick "FFN formula" test_ffn_formula;
          quick "worst and fits" test_worst_and_fits;
          quick "monotonic in P" test_monotonic_in_p;
          quick "of_workload" test_of_workload;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_formulas_positive ]);
    ]
