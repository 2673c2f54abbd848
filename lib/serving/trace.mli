(** Perfetto rendering of a serving simulation: the engine's virtual
    timeline through {!Tf_report.Sim_trace.spans_document}.

    Tracks (1 trace microsecond = 1 virtual microsecond):
    - {e engine}: one slice per prefill, and one per {e decode run} —
      consecutive steps with identical batch membership merged, so a
      steady batch renders as one slice instead of thousands;
    - one track per request (capped — see [max_request_tracks]):
      queued / prefill / decode phases of its lifetime;
    - counter series [queue_depth] (waiting requests) and [batch_size]
      (running decode batch, sampled at step boundaries). *)

val document : Simulator.report -> Tf_json.t
(** The [transfusion.simtrace/1] document of the run's serving window. *)
