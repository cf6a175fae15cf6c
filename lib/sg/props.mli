(** Behavioural properties of state graphs used as synthesis
    preconditions: output persistency (speed-independence), liveness of
    transitions, and deadlock freedom. *)

type persistency_violation = {
  state : int;
  disabled : int;  (** the non-input transition that was enabled… *)
  by : int;  (** …and got disabled when this transition fired *)
}

val persistency_violations : Sg.t -> persistency_violation list
(** Pairs witnessing that firing [by] disables the enabled non-input
    transition [disabled] — a potential hazard for speed-independent
    implementation.  Input-vs-input conflicts (environment choice) are
    allowed and not reported. *)

val is_output_persistent : Sg.t -> bool

val live_transitions : Sg.t -> bool
(** Every transition of the STG fires on some edge of the graph. *)

val deadlock_free : Sg.t -> bool
