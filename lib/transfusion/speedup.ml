open Tf_costmodel

type entry = {
  kind : Phase.layer_kind;
  baseline_s : float;
  optimized_s : float;
  speedup : float;
  contribution : float;
}

let attribute ~baseline ~optimized =
  let base = Latency.per_kind_seconds baseline in
  let opt = Latency.per_kind_seconds optimized in
  let raw =
    List.map2
      (fun (kind, baseline_s) (kind', optimized_s) ->
        assert (kind = kind');
        let speedup = if optimized_s > 0. then baseline_s /. optimized_s else 0. in
        (kind, baseline_s, optimized_s, speedup))
      base opt
  in
  let denom = List.fold_left (fun acc (_, b, _, s) -> acc +. (s *. b)) 0. raw in
  List.map
    (fun (kind, baseline_s, optimized_s, speedup) ->
      {
        kind;
        baseline_s;
        optimized_s;
        speedup;
        contribution = (if denom > 0. then speedup *. baseline_s /. denom else 0.);
      })
    raw
