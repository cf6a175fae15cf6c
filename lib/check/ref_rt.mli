(** Naive relative-timing assumption generation: the whole-trace list
    scans that {!Rtcad_rt.Timed_sim.gap} and
    {!Rtcad_rt.Generate.automatic_of_pairs} replace, kept as the
    reference they are diffed against. *)

val min_gap : Rtcad_rt.Timed_sim.trace -> first:int -> second:int -> float option
(** Over every pair of an episode of [first] and an episode of [second]
    that overlap in time (closed intervals), the minimum of
    [fired_at second - fired_at first]; [None] if they never overlap.
    Filters the whole trace once per transition and compares every
    episode pair. *)

val automatic_of_pairs :
  allow_input_first:bool ->
  Rtcad_stg.Stg.t ->
  (int * int) list ->
  Rtcad_rt.Assumption.t list
(** The generator's rule at its default settings, over {!min_gap}: the
    candidate pairs (circuit-first unless [allow_input_first]) whose
    [second] fires at least 0.5 after [first] whenever both are pending,
    in each of five timed runs (seeds 1-5, 5% jitter, 40 firings per
    transition). *)
