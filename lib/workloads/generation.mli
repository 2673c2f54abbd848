(** An autoregressive generation workload: a prompt processed once
    (prefill) followed by [gen] single-token decode steps against a
    growing KV cache.

    The spec lowers to two {!Workload.t}s:
    - {!prefill_workload} — the prompt at full sequence length, evaluated
      with causal self-attention (the existing encoder path); its latency
      is the time to first token (TTFT).
    - {!decode_workload} — a single query position ([seq_len = 1]) whose
      attention flavour carries the cache length; decode step [i] attends
      over a cache of [prompt + i] positions.

    Per-token decode cost is affine in the cache length (the attention
    loop is linear in [t]; everything else is constant), so a full
    generation aggregates in closed form from the two cache endpoints
    {!kv_first} = [prompt] and {!kv_last} = [prompt + gen]: the
    trapezoid sum [gen * (cost(first) + cost(last)) / 2] equals the exact
    discrete sum up to half of one token's marginal cost.  This is what
    lets the scheduler run {e one} search per generation instead of
    [gen]. *)

type t = {
  model : Model.t;
  prompt : int;  (** prompt (prefill) length in tokens *)
  gen : int;  (** number of generated tokens *)
  batch : int;  (** concurrent sequences *)
}

val v : ?batch:int -> ?gen:int -> Model.t -> prompt:int -> t
(** [batch] defaults to 16 (serving batches are smaller than the paper's
    fixed training-style batch of 64); [gen] defaults to 512.
    @raise Invalid_argument on non-positive sizes. *)

val prefill_workload : t -> Workload.t
(** The prompt as an ordinary workload ([seq_len = prompt]). *)

val decode_workload : t -> Workload.t
(** One decode step as a workload ([seq_len = 1]); the cache length is
    carried by the attention flavour, not the workload. *)

val kv_first : t -> int
(** Cache length at the first decode step: [prompt]. *)

val kv_last : t -> int
(** Cache length after the last decode step: [prompt + gen]. *)

val label : t -> string
(** ["64K+512"]-style label (prompt label + generated tokens). *)

val sweep : Model.t -> t list
(** The model across the paper's prompt-length sweep, at the default
    batch and generation length of {!v}. *)
