open Tf_workloads
module Strategies = Transfusion.Strategies

(* Structured summary-cache key.  An earlier revision concatenated
   names and numbers into one string, which keyed distinct archs by
   name alone (ablation variants share preset names) and invited
   separator collisions — the same class of bug fixed twice in PR 2.
   Every field the evaluation depends on is fingerprinted here:
   [arch] via [Strategies.Private.arch_fingerprint] (all performance
   fields, not just the name) and the model as its full record, so any
   tweaked variant hashes to a fresh key structurally. *)
type cache_key = {
  key_arch : string;
  key_model : Model.t;
  key_seq_len : int;
  key_batch : int;
  key_strategy : Strategies.t;
  key_budget : int;  (* TileSeek iteration budget *)
}

let cache_key ~tileseek_iterations (arch : Tf_arch.Arch.t) (w : Workload.t) strategy =
  {
    key_arch = Strategies.Private.arch_fingerprint arch;
    key_model = w.model;
    key_seq_len = w.seq_len;
    key_batch = w.batch;
    key_strategy = strategy;
    key_budget = tileseek_iterations;
  }

(* Persistence codec for the structured key: a canonical JSON rendering
   (for humans and store inspection) and a stable fingerprint derived
   from it (for filenames and lookup).  Every field of the key — and
   every field of the model record inside it — participates, so two keys
   fingerprint equal iff they compare structurally equal. *)
module Key = struct
  let activation_name = function
    | Tf_einsum.Scalar_op.Relu -> "relu"
    | Tf_einsum.Scalar_op.Gelu -> "gelu"
    | Tf_einsum.Scalar_op.Silu -> "silu"
    | Tf_einsum.Scalar_op.Sigmoid -> "sigmoid"

  let to_json (k : cache_key) =
    let m = k.key_model in
    Tf_json.(
      Obj
        [
          ("arch", Str k.key_arch);
          ( "model",
            Obj
              [
                ("name", Str m.Model.name);
                ("d_model", Int m.Model.d_model);
                ("heads", Int m.Model.heads);
                ("head_dim", Int m.Model.head_dim);
                ("ffn_hidden", Int m.Model.ffn_hidden);
                ("layers", Int m.Model.layers);
                ("activation", Str (activation_name m.Model.activation));
              ] );
          ("seq_len", Int k.key_seq_len);
          ("batch", Int k.key_batch);
          ("strategy", Str (Strategies.name k.key_strategy));
          ("budget", Int k.key_budget);
        ])
end

(* Shared across the domain pool by the parallel figure sweeps, hence
   the mutexed table; the sweeps are its only users (the daemon caches
   rendered payloads in its own tier).  Bounded so a long sweep over
   many distinct keys cannot grow it without limit — an evicted summary
   merely recomputes on its next lookup. *)
let cache : (cache_key, Strategies.result) Tf_parallel.Memo.t =
  Tf_parallel.Memo.create ~name:"exp_common.summary" ~capacity:4096 ()

let reset_cache () =
  Tf_parallel.Memo.clear cache;
  Strategies.reset_registries ()

let require_clean what diags =
  if Tf_analysis.Diagnostic.has_errors diags then
    failwith
      (Printf.sprintf "%s failed verification: %s" what
         (String.concat "; "
            (List.map Tf_analysis.Diagnostic.render (Tf_analysis.Diagnostic.errors diags))))

let verify_result (((r : Strategies.result), _) as evaluated) =
  require_clean
    (Printf.sprintf "%s result" (Strategies.name r.Strategies.strategy))
    (Tf_analysis.Verify.strategy_result evaluated);
  r

(* Range certification of a sweep band: before a figure sweeps a model
   across sequence lengths, certify the whole band [lo..hi] (grid of
   lo-multiples) in one shot instead of trusting the sampled points to
   speak for the range. *)
let certify_seq_band (archs : Tf_arch.Arch.t list) (model : Model.t) ~seqs =
  match seqs with
  | [] -> ()
  | s0 :: _ ->
      let lo = List.fold_left Stdlib.min s0 seqs and hi = List.fold_left Stdlib.max s0 seqs in
      List.iter
        (fun (arch : Tf_arch.Arch.t) ->
          let cert = Tf_analysis.Verify.certify_range arch model ~lo ~hi ~step:lo () in
          require_clean
            (Tf_analysis.Range_cert.name cert)
            (Tf_analysis.Range_cert.diagnostics cert))
        archs

let evaluate_execution ~tileseek_iterations arch w strategy =
  let evaluated = Strategies.evaluate ~tileseek_iterations arch w strategy in
  ignore (verify_result evaluated : Strategies.result);
  evaluated

let evaluate ?(tileseek_iterations = 200) (arch : Tf_arch.Arch.t) (w : Workload.t) strategy =
  (* The TileSeek budget changes the result, so it must be part of the
     key: evaluations at different budgets may not share cache entries. *)
  let key = cache_key ~tileseek_iterations arch w strategy in
  Tf_parallel.Memo.find_or_compute cache key (fun () ->
      fst (evaluate_execution ~tileseek_iterations arch w strategy))

let prime ?tileseek_iterations points =
  Tf_parallel.iter ~chunk:1
    (fun (arch, w, strategy) ->
      ignore (evaluate ?tileseek_iterations arch w strategy : Strategies.result))
    (Array.of_list points)

let sweep_points ?(strategies = Strategies.all) archs workloads =
  List.concat_map
    (fun arch ->
      List.concat_map (fun w -> List.map (fun s -> (arch, w, s)) strategies) workloads)
    archs

let par_map f l = Tf_parallel.map_list ~chunk:1 f l

let par_concat_map f l = List.concat (par_map f l)

let seq_sweep ~quick =
  if quick then [ ("1K", 1024); ("16K", 16384); ("256K", 262144) ] else Workload.seq_labels

let geomean = function
  | [] -> 1.0
  | xs ->
      List.iter (fun x -> if x <= 0. then invalid_arg "Exp_common.geomean: non-positive") xs;
      exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))

let speedups_over_unfused arch w =
  let baseline = evaluate arch w Strategies.Unfused in
  List.map
    (fun s -> (s, Strategies.speedup ~baseline (evaluate arch w s)))
    Strategies.all

let energy_over_unfused arch w =
  let baseline = evaluate arch w Strategies.Unfused in
  List.map
    (fun s -> (s, Strategies.energy_ratio ~baseline (evaluate arch w s)))
    Strategies.all

let models = Presets.all
let seq_64k = 65536

let print_header title =
  let bar = String.make (String.length title + 4) '=' in
  Printf.printf "\n%s\n= %s =\n%s\n" bar title bar

let print_series_table ~row_label ~columns ~rows () =
  let width = 12 in
  Printf.printf "%-22s" row_label;
  List.iter (fun c -> Printf.printf "%*s" width c) columns;
  print_newline ();
  List.iter
    (fun (label, values) ->
      Printf.printf "%-22s" label;
      List.iter (fun v -> Printf.printf "%*.3f" width v) values;
      print_newline ())
    rows
