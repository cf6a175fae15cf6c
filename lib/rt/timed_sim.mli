(** Eager timed execution of an STG under a simple delay model.

    Every transition fires a fixed delay after it becomes enabled: one gate
    delay for non-input transitions, [env_delay] for inputs, zero for
    dummies.  Free choice is resolved randomly (seeded); ties in firing
    time are broken randomly as well.  The trace records, for every firing,
    its enabling and firing instants — the raw material for automatic
    relative-timing assumption generation and for the ring experiment of
    Section 4.2. *)

type event = {
  transition : int;
  enabled_at : float;
  fired_at : float;
}

type trace = event list
(** In firing order. *)

val run :
  ?env_delay:float ->
  ?gate_delay:float ->
  ?jitter:float ->
  ?seed:int ->
  steps:int ->
  Rtcad_stg.Stg.t ->
  trace
(** Simulate up to [steps] firings from the initial marking.  [jitter]
    adds a uniform random fraction of the delay ([0.0] by default, making
    the run deterministic up to choice).  Default [env_delay] 2.0,
    [gate_delay] 1.0.  A deadlock before [steps] firings ends the run
    with the partial trace — shorter traces yield fewer gap observations,
    so orderings over non-live specs are judged conservatively. *)

val vcd_of_trace : Rtcad_stg.Stg.t -> trace -> Rtcad_obs.Vcd.writer
(** Render a trace as one waveform per STG signal (dummy transitions are
    skipped).  Fire times are scaled by 1000 — delay units are nominally
    picoseconds, so dumped timestamps are femtoseconds, matching the
    writer's default timescale. *)

type index
(** A trace's firing episodes — each firing's enabling and firing
    instants — grouped by transition, in firing order. *)

val index : trace -> index
(** Time linear in the trace's length. *)

val gap : index -> first:int -> second:int -> float option
(** Over all pairs of an episode of [first] and an episode of [second]
    that overlap in time (closed intervals: touching counts), the
    minimum of [fired_at second - fired_at first].  [None] if the two
    were never pending together.  Costs time linear in the two
    transitions' episode counts. *)
