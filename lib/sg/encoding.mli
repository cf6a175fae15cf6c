(** State-encoding analysis: Unique State Coding (USC) and Complete State
    Coding (CSC).

    USC fails when two distinct states carry the same binary code.  CSC
    fails when two states with the same code disagree on the excitation of
    some non-input signal — the next-state functions then become
    ill-defined and a state signal must be inserted. *)

type conflict = {
  state_a : int;
  state_b : int;
  signals : int list;
      (** The non-input signals whose excitation differs (empty for a pure
          USC conflict). *)
}

val csc_conflicts : Sg.t -> conflict list
(** All pairs of distinct states that share a code and disagree on the
    excitation of some non-input signal (USC conflicts with [signals]
    non-empty). *)

val has_csc : Sg.t -> bool

val pp_conflict : Sg.t -> Format.formatter -> conflict -> unit
