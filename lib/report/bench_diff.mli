(** Compare two bench JSON documents for CI perf-regression guarding.

    Understands both bench schemas in the repo:
    - [transfusion-bench/v1] — what [bench/main.exe --json] emits
      (per-figure wall seconds + Bechamel ns/run microbenchmarks);
    - [transfusion-bench-trajectory/v1] — the committed [BENCH_*.json]
      trajectory notes (the ["current"] section is used).

    Entries are matched by name; a matched entry regresses when
    [current / baseline] exceeds the relative threshold (default 1.5 —
    wall clocks on shared CI runners are noisy, so the guard is coarse
    and intended as warn-only).  Entries present on only one side are
    reported but never count as regressions. *)

type kind = Wall_s | Ns_per_run

type entry = { name : string; kind : kind; value : float }

type row = { name : string; kind : kind; baseline : float; current : float; ratio : float }

type report = {
  threshold : float;
  rows : row list;  (** matched entries, sorted by name *)
  regressions : row list;  (** [ratio > threshold] *)
  improvements : row list;  (** [ratio < 1 / threshold] *)
  missing_in_current : string list;
  missing_in_baseline : string list;
}

val entries : Tf_json.t -> entry list
(** Extract the comparable series of a bench document.
    @raise Tf_json.Bad_json on an unrecognised schema or shape.
    Null/NaN measurements are skipped. *)

val compare_docs : ?threshold:float -> baseline:Tf_json.t -> Tf_json.t -> report
(** [compare_docs ~baseline current] matches the two series. *)

val has_regressions : report -> bool

val strict_failures : rules:(string * float) list -> report -> row list
(** Matched rows covered by a [(prefix, ratio)] rule whose ratio they
    exceed — the benchmark families CI fails on even when the global
    diff runs warn-only (the CLI's repeatable [--fail-on PREFIX=RATIO]).
    A row matching several rules fails when it exceeds any of them;
    rules use their own per-family ratio, not [threshold]. *)

val render : report -> string
(** Human table: every matched row with its ratio, regressions flagged,
    then the unmatched names. *)
