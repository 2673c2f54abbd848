open Tf_arch
open Tf_workloads
open Tf_costmodel

type metrics = {
  spec : Generation.t;
  strategy : Strategies.t;
  prefill : Strategies.result;
  first : Strategies.result;
  last : Strategies.result;
  decode_tiling : Tileseek.config option;
  ttft_s : float;
  token_s_first : float;
  token_s_last : float;
  decode_s : float;
  total_s : float;
  tokens_per_s : float;
  decode_energy : Energy.breakdown;
  energy_per_token_pj : float;
  total_energy_pj : float;
}

type executions = {
  prefill_exec : Strategies.execution option;
  first_exec : Strategies.execution option;
  last_exec : Strategies.execution option;
}

let m_evaluations =
  Tf_obs.Counter.create ~help:"Decode.evaluate calls (full generations costed)"
    "decode.evaluations_total"

let m_tokens =
  Tf_obs.Counter.create ~help:"generated tokens covered by Decode.evaluate (gen * batch)"
    "decode.tokens_total"

let m_searches_saved =
  Tf_obs.Counter.create
    ~help:"per-token searches avoided by closed-form aggregation (gen - 1 per evaluation)"
    "decode.searches_saved_total"

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let step ?tiling ?tileseek_iterations arch (spec : Generation.t) strategy ~kv_len =
  Strategies.evaluate ?tiling ?tileseek_iterations
    ~attention:(Strategies.Decode { kv_len })
    ~layers:spec.Generation.model.Model.layers arch
    (Generation.decode_workload spec)
    strategy

let evaluate ?tileseek_iterations arch (spec : Generation.t) strategy =
  Tf_obs.Counter.incr m_evaluations;
  Tf_obs.Counter.add m_tokens (spec.Generation.gen * spec.Generation.batch);
  Tf_obs.Counter.add m_searches_saved (Int.max 0 (spec.Generation.gen - 1));
  Tf_obs.Trace.with_span ~cat:"decode"
    ~args:
      [
        ("strategy", Strategies.name strategy);
        ("arch", arch.Arch.name);
        ("model", spec.Generation.model.Model.name);
        ("prompt", string_of_int spec.Generation.prompt);
        ("gen", string_of_int spec.Generation.gen);
        ("batch", string_of_int spec.Generation.batch);
      ]
    "decode.evaluate"
  @@ fun () ->
  let prefill, prefill_exec =
    Strategies.evaluate ?tileseek_iterations ~attention:Strategies.Causal_self arch
      (Generation.prefill_workload spec)
      strategy
  in
  let kv_lo = Generation.kv_first spec and kv_hi = Generation.kv_last spec in
  (* One TileSeek search, at the deepest cache (where the Table 2 budget
     binds); the winning tiling is clamped so its key/value tile divides
     both endpoints and then reused at each, keeping the per-token cost
     affine in the cache length so the trapezoid aggregation below is
     exact (up to half of one token's marginal cost). *)
  let ((searched, _) as searched_eval) =
    step ?tileseek_iterations arch spec strategy ~kv_len:kv_hi
  in
  let tiling =
    Option.map (fun c -> Tileseek.clamp_kv c ~kv_len:(gcd kv_lo kv_hi)) searched.Strategies.tiling
  in
  let first, first_exec = step ?tiling ?tileseek_iterations arch spec strategy ~kv_len:kv_lo in
  let last, last_exec =
    if tiling = searched.Strategies.tiling then searched_eval
    else step ?tiling ?tileseek_iterations arch spec strategy ~kv_len:kv_hi
  in
  let latency_of (r : Strategies.result) = r.Strategies.latency.Latency.total_s in
  let gen = float_of_int spec.Generation.gen and batch = float_of_int spec.Generation.batch in
  let token_s_first = latency_of first and token_s_last = latency_of last in
  let decode_s = gen *. (token_s_first +. token_s_last) /. 2. in
  let decode_energy =
    Energy.add
      (Energy.scale (gen /. 2.) first.Strategies.energy)
      (Energy.scale (gen /. 2.) last.Strategies.energy)
  in
  let ttft_s = latency_of prefill in
  ( {
      spec;
      strategy;
      prefill;
      first;
      last;
      decode_tiling = (match tiling with Some _ as t -> t | None -> last.Strategies.tiling);
      ttft_s;
      token_s_first;
      token_s_last;
      decode_s;
      total_s = ttft_s +. decode_s;
      tokens_per_s = batch *. gen /. decode_s;
      decode_energy;
      energy_per_token_pj = Energy.total_pj decode_energy /. (batch *. gen);
      total_energy_pj = Energy.total_pj prefill.Strategies.energy +. Energy.total_pj decode_energy;
    },
    { prefill_exec; first_exec; last_exec } )
