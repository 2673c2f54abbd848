(** Chrome trace-event rendering of a {e simulated} schedule timeline.

    The wall-clock observability layer ({!Tf_obs.Trace}) records what the
    framework itself did; this module renders what the {e modeled
    accelerator} would do: every {!Transfusion.Pipeline_sim.event} becomes
    a complete ("ph":"X") slice on a per-PE-array track, with timestamps
    on a virtual cycle clock (1 trace microsecond = 1 cycle).  A counter
    track samples the on-chip buffer occupancy (the Table 2 requirement of
    the module executing at each instant, the fused stack's residency
    model) against the capacity limit.

    The document loads in Perfetto / chrome://tracing and serialises
    through {!Tf_json}, so it is deterministic and
    diffable.  Folding the slice durations per track reproduces the
    simulation outcome's busy totals (the property the tests pin). *)

type instance = {
  event : Transfusion.Pipeline_sim.event;
  label : string;  (** operation name, e.g. ["BQK"] *)
  module_name : string;  (** Table 2 module the operation belongs to *)
  bound : [ `Compute | `Memory ];  (** roofline class under tile extents *)
  buffer_elements : float;
      (** the module's Table 2 on-chip requirement while this instance
          executes (elements) *)
}

val document :
  ?name:string -> capacity_elements:float -> instance list -> Tf_json.t
(** [document ~capacity_elements instances] builds the trace document:
    top-level [schema = "transfusion.simtrace/1"], [traceEvents] with
    thread-name metadata for the two PE-array tracks, one "X" slice per
    instance ([ts] = start cycle, [dur] = busy cycles, args carrying the
    stall attribution), and "C" counter samples for buffer occupancy and
    capacity at every instance start/end boundary.  [name] labels the
    process track (default ["transfusion sim"]).  Slices appear in the
    input's (completion) order; counters in ascending cycle order. *)

type span = {
  tid : int;  (** the track the slice renders on *)
  span_label : string;
  cat : string;  (** trace-event category (filterable in Perfetto) *)
  ts_us : float;  (** start, trace microseconds *)
  dur_us : float;
  span_args : (string * Tf_json.t) list;
}
(** A generic complete slice — what timeline producers other than
    {!Transfusion.Pipeline_sim} (e.g. the serving simulator, whose
    events are virtual {e seconds}, not cycles) render through
    {!spans_document}. *)

val spans_document :
  ?name:string ->
  ?other_data:(string * Tf_json.t) list ->
  tracks:(int * string) list ->
  spans:span list ->
  counters:(string * (float * float) list) list ->
  unit ->
  Tf_json.t
(** A [transfusion.simtrace/1] document from arbitrary tracks: one
    thread-name metadata event per [tracks] entry (tid, name), one "X"
    slice per span (in input order), and one "C" series per [counters]
    entry (name, [(ts_us, value)] samples, emitted in input order —
    pass them sorted).  [other_data] extends the document's [otherData]
    object; [name] labels the process track (default
    ["transfusion sim"]).  The cycle-clock {!document} above is this
    with the Table-2 occupancy model baked in. *)
