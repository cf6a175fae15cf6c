(** Conformance verification of a gate-level circuit against an STG
    specification under the unbounded (speed-independent) delay model,
    optionally constrained by relative-timing assumptions (Section 5 of
    the paper).

    The circuit is composed with the {e mirror} of the specification: the
    spec's input transitions become environment moves driving the
    circuit's primary inputs, and every change of a circuit net whose name
    matches a spec signal is checked against the transitions the spec
    allows.  Each gate has unbounded delay: an excited gate may fire at
    any time.  Failures:

    - {e unexpected output}: a named net fires an edge the spec does not
      enable;
    - {e hazard}: an excited gate loses its excitation without firing
      (semi-modularity violation — a potential glitch in silicon);
    - {e deadlock}: no move is possible but the spec still expects
      circuit activity.

    Relative-timing constraints remove interleavings: a move for event [b]
    is not explored in a configuration where a constraint [a before b]
    holds with [a] also enabled.  Verification then reports which
    constraints were {e load-bearing} — the back-annotation of Figure 2. *)

type move =
  | Env of int  (** spec transition index (an input edge) *)
  | Gate of Rtcad_netlist.Netlist.net * bool  (** net commits a new value *)

type failure =
  | Unexpected_output of { net : Rtcad_netlist.Netlist.net; value : bool; trace : move list }
  | Hazard of {
      net : Rtcad_netlist.Netlist.net;
      target : bool;  (** the value the gate was driving towards *)
      cause : move;
      trace : move list;
    }
  | Deadlock of { trace : move list }

type net_edge = { net : Rtcad_netlist.Netlist.net; rising : bool }
(** A transition of a circuit net — used to constrain internal gates that
    have no specification counterpart (Section 5's decomposed C-element:
    "[bc] rises before [ab] falls"). *)

type result = {
  ok : bool;
  failures : failure list;  (** up to the failure budget, deduplicated *)
  configurations : int;  (** explored product states *)
  used_constraints : Rtcad_rt.Assumption.t list;
      (** constraints that pruned at least one explored move *)
  used_net_constraints : (net_edge * net_edge) list;
}

exception Bound_exceeded of int

val check :
  ?constraints:Rtcad_rt.Assumption.t list ->
  ?net_constraints:(net_edge * net_edge) list ->
  ?max_configurations:int ->
  ?max_failures:int ->
  circuit:Rtcad_netlist.Netlist.t ->
  spec:Rtcad_stg.Stg.t ->
  unit ->
  result
(** Explore the composition breadth-first from the reset state (netlist
    initial values, STG initial marking).  The spec must be dummy-free
    (contract first) and its input signals must exist as circuit input
    nets of the same name.  Default bounds: 200000 configurations, 10
    failures.  Raises {!Bound_exceeded} if the bound is hit. *)

val pp_result :
  Rtcad_netlist.Netlist.t -> Rtcad_stg.Stg.t -> Format.formatter -> result -> unit
