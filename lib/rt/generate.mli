(** Automatic generation of relative-timing assumptions.

    Implements the paper's "simple delay model" rule family ("one gate can
    be made faster than two"): the STG is executed eagerly under
    unit gate delays and a slower environment; whenever two transitions
    are concurrently enabled somewhere in the untimed state graph but the
    timed executions consistently fire one of them at least [margin]
    earlier — and the early one is a circuit (non-input) transition — the
    ordering is proposed as an automatic assumption.

    Multiple randomized runs (choice resolution and tie-breaks) are
    intersected so that only robust orderings survive. *)

val automatic :
  ?env_delay:float ->
  ?gate_delay:float ->
  ?margin:float ->
  ?runs:int ->
  ?steps:int ->
  ?allow_input_first:bool ->
  Rtcad_stg.Stg.t ->
  Rtcad_sg.Sg.t ->
  Assumption.t list
(** [automatic stg sg] proposes assumptions for the given STG and its
    (untimed) state graph.  Defaults: [env_delay 2.0], [gate_delay 1.0],
    [margin 0.5], [runs 5], [steps] 40 times the transition count.

    [allow_input_first] (default [false]) additionally proposes orderings
    between two environment responses when the homogeneous delay model
    separates them robustly (e.g. [li-] answers one gate, [ri+] answers a
    chain of two).  The paper restricts automatic generation to circuit
    events and leaves input/input orderings to the user; the homogeneous-
    environment extension subsumes the gate-count rule while still {e not}
    deriving genuinely architectural assumptions such as the ring's
    "[ri-] before [li+]" (the homogeneous model predicts the opposite
    order, so that assumption can only come from the user — Section
    4.2). *)

val automatic_of_pairs :
  ?env_delay:float ->
  ?gate_delay:float ->
  ?margin:float ->
  ?runs:int ->
  ?steps:int ->
  ?allow_input_first:bool ->
  Rtcad_stg.Stg.t ->
  (int * int) list ->
  Assumption.t list
(** {!automatic} with the concurrently-enabled transition pairs supplied
    directly (from either engine's [Engine.S.concurrent_pairs]) instead
    of scanned from an explicit graph.  The timed executions that
    validate each candidate ordering run on the STG alone. *)
