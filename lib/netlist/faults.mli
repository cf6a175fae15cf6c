(** Stuck-at fault simulation and testability analysis.

    The fault universe is every net (gate outputs and primary inputs)
    stuck at 0 and stuck at 1.  A test is a {e stimulus}: a function that
    installs an environment (drives and callbacks) on a fresh simulator.
    A fault is detected when the faulty machine's observable trace — the
    sequence of transitions on output-marked nets — differs from the
    golden trace within the horizon, or when the faulty machine
    oscillates. *)

type fault = { net : Netlist.net; stuck_at : bool }

val all_faults : Netlist.t -> fault list

val observable_trace :
  ?fault:fault ->
  stimulus:(Sim.t -> unit) ->
  horizon:float ->
  Netlist.t ->
  (Netlist.net * bool) list option
(** Run to the horizon and project the trace on output nets (times
    dropped: handshake tests are delay-insensitive).  [None] when the
    simulation oscillated. *)

type report = {
  total : int;
  detected : int;
  coverage : float;  (** detected / total, in percent *)
  undetected : fault list;
}

val coverage :
  stimulus:(Sim.t -> unit) -> horizon:float -> Netlist.t -> report

val pp_report : Netlist.t -> Format.formatter -> report -> unit
