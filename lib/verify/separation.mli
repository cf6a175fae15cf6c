(** Min/max separation analysis over delay-bounded paths.

    Each gate's nominal delay is widened into an interval
    [[(1-margin)·d, (1+margin)·d]] (process variation).  A path
    constraint holds robustly when the {e maximum} delay of the fast path
    is smaller than the {e minimum} delay of the slow path; the difference
    is the slack (race margin) that the sizing tools of the paper's
    Section 6 would have to preserve. *)

type bounds = { min_ps : float; max_ps : float }
(** Delay interval of a path: its observed span in the characterization
    run (environment hops included at their observed latency), widened by
    [margin] on both sides. *)

type verdict = {
  holds : bool;
  slack_ps : float;  (** min(slow) - max(fast); negative when violated *)
  fast : bounds;
  slow : bounds;
}

val check : ?margin:float -> Rtcad_netlist.Netlist.t -> Paths.t -> verdict

val pp_verdict : Format.formatter -> verdict -> unit
