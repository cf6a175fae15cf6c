(** State graphs: the reachability graph of an STG.

    Each state pairs a safe-net marking with the binary code of all signals
    in that state.  The graph is built by breadth-first exploration from the
    initial marking; safety and consistency (strict alternation of rising
    and falling edges of every signal) are enforced during construction. *)

type t

exception Inconsistent of string
(** A signal would rise when already high (or fall when low), or the same
    marking is reached with two different codes. *)

exception Too_large of int
(** Raised when exploration exceeds the state bound. *)

val build : ?max_states:int -> ?par_threshold:int -> Rtcad_stg.Stg.t -> t
(** Explore the reachable state space.  Default bound is 200000 states.
    Raises {!Inconsistent}, {!Too_large}, or {!Rtcad_stg.Petri.Unsafe}.

    When [Rtcad_par.Par.jobs () > 1] (and the caller is not already
    inside a parallel region), exploration switches to frontier-parallel
    BFS once [par_threshold] states (default 1024) have been discovered
    serially.  The result — state numbering, packed edge arrays, raised
    exceptions — is bit-identical to the serial build: states are
    renumbered canonically at the end, and any parallel-phase failure
    falls back to a full serial rerun.  [par_threshold] exists so tests
    can force the parallel path on small graphs. *)

(**/**)

val of_exploration :
  stg:Rtcad_stg.Stg.t ->
  markings:Rtcad_util.Bitset.t array ->
  codes:Rtcad_util.Bitset.t array ->
  edges:int Rtcad_util.Vec.t ->
  t
(** Internal: package a finished exploration into a state graph.  The
    states must already be in canonical serial-BFS order (state 0 is the
    initial state) and [edges] must hold the raw
    (source, transition, target) triples in discovery order.  Used by
    {!Symbolic.materialize}; not part of the stable API. *)

val initial_code : Rtcad_stg.Stg.t -> Rtcad_util.Bitset.t
(** Internal: the code of the initial state (signals at their declared
    initial values).  Shared with the symbolic engine. *)

val inconsistent_msg : Rtcad_stg.Stg.t -> int -> Rtcad_stg.Stg.dir -> string -> string
(** Internal: the exact message an {!Inconsistent} label check produces,
    so the symbolic engine raises byte-identical failures. *)

val check_label : Rtcad_stg.Stg.t -> Rtcad_util.Bitset.t -> int -> unit
(** Internal: raise {!Inconsistent} if the transition fires against the
    current value of its signal. *)

val apply_label : Rtcad_stg.Stg.t -> Rtcad_util.Bitset.t -> int -> Rtcad_util.Bitset.t
(** Internal: {!check_label} then flip the signal. *)

val code_matches : Rtcad_stg.Stg.t -> Rtcad_util.Bitset.t -> int -> Rtcad_util.Bitset.t -> bool
(** Internal: does code followed by the transition land on exactly the
    second code? *)

(**/**)

val stg : t -> Rtcad_stg.Stg.t
val num_states : t -> int
val initial : t -> int

val marking : t -> int -> Rtcad_util.Bitset.t
val code : t -> int -> Rtcad_util.Bitset.t
(** Signal values in a state, as a bit set over signal indices. *)

val value : t -> int -> int -> bool
(** [value sg state signal]. *)

val succs : t -> int -> (int * int) list
(** Outgoing edges as [(transition, target)] pairs. *)

val preds : t -> int -> (int * int) list
(** Incoming edges as [(transition, source)] pairs. *)

val num_succs : t -> int -> int

val iter_succs : t -> int -> (int -> int -> unit) -> unit
(** [iter_succs sg s f] calls [f transition target] for each outgoing
    edge, in {!succs} order, without materializing the list.  Edges are
    stored packed; prefer this in hot loops. *)

val enabled : t -> int -> int list
(** Transitions enabled in a state. *)

val excited : t -> int -> int -> bool
(** [excited sg state signal]: some enabled transition toggles [signal]. *)

val next_value : t -> int -> int -> bool
(** Implied next value of a signal: current value xor excitation.  This is
    the value of the next-state function used for synthesis. *)

val find_state : t -> Rtcad_util.Bitset.t -> int option
(** Look up a state by marking. *)

val deadlocks : t -> int list
(** States with no enabled transition. *)

val iter_states : (int -> unit) -> t -> unit

val restrict : t -> allowed:(int -> int -> bool) -> t
(** [restrict sg ~allowed] rebuilds the graph keeping only edges
    [(state, transition)] for which [allowed state transition] holds, and
    only states still reachable from the initial state.  State indices are
    renumbered; the result shares the STG. *)

val pp_state : t -> Format.formatter -> int -> unit
(** Prints the code as a bit string in signal order, e.g. [10110]. *)

val pp : Format.formatter -> t -> unit
