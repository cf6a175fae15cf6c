(** Event-driven timing simulation of a netlist.

    Each gate output carries at most one pending event (inertial delay):
    re-evaluation to the committed value cancels a pending contrary event
    and counts it as a glitch.  Primary inputs are driven explicitly or by
    environment callbacks registered on net changes — the standard way to
    model a handshake environment.

    Time is in picoseconds (internally femtosecond integers, so runs are
    exactly reproducible). *)

type t

exception Oscillation of string
(** Raised by {!run} / {!settle} when a net keeps toggling beyond the
    event budget (combinational oscillation or a runaway environment). *)

val create :
  ?delay:(Netlist.net -> Gate.t -> float) ->
  ?forced:(Netlist.net * bool) list ->
  Netlist.t ->
  t
(** Build a simulator.  [delay] overrides {!Gate.delay_ps} per gate
    instance (the net is the gate's output), which is how sizing decisions
    are modelled.  [forced] nets
    are stuck at a value (fault injection): drives and gate evaluations
    on them are ignored.  All nets start at their netlist initial value;
    gates are NOT auto-settled — call {!settle} if the initial state is
    not already consistent. *)

val netlist : t -> Netlist.t
val time : t -> float
val value : t -> Netlist.net -> bool

val drive : ?cause:int -> t -> Netlist.net -> bool -> after:float -> unit
(** Schedule a primary-input change [after] ps from the current time.
    [cause] (an event id, see {!events}) attributes the drive to the
    circuit event the environment is responding to, keeping causal chains
    unbroken across the interface.  Raises [Invalid_argument] on
    non-input nets. *)


val on_change : t -> Netlist.net -> (t -> bool -> unit) -> unit
(** Register a callback invoked after the net commits a new value.
    Change-only: the commit path drops writes of the value a net already
    holds, so a callback fires exactly once per actual transition.
    Multiple callbacks stack. *)

val attach_vcd : t -> Rtcad_obs.Vcd.writer -> unit
(** Declare every net of the netlist as a VCD signal (with its current
    value as the initial value) and stream each committed change into
    the writer via {!on_change} observers.  Attach before driving the
    simulator; times are the simulator's femtosecond clock, matching the
    writer's default [1 fs] timescale. *)

val run : ?max_events:int -> t -> until:float -> unit
(** Process events with timestamps [<= until] (absolute ps). *)

val settle : ?max_events:int -> t -> unit -> unit
(** Run until no events remain. *)

val transition_count : t -> Netlist.net -> int
val glitches : t -> int
val energy_pj : t -> float
(** Accumulated switching energy of committed transitions. *)

val trace : t -> (float * Netlist.net * bool) list
(** Committed changes of {e output-marked} nets, oldest first. *)

(** {2 Causality} *)

type event = {
  id : int;
  net : Netlist.net;
  value : bool;
  at : float;
  cause : int option;
      (** the event whose commit scheduled this one; [None] for external
          drives and power-up evaluation *)
}

val events : t -> event list
(** Every committed transition in order, with causal parent links — the
    raw material for path-constraint extraction ({!Rtcad_verify.Paths}). *)

val last_event : t -> event option
(** The most recently committed event — inside an {!on_change} callback,
    the event that triggered it. *)
