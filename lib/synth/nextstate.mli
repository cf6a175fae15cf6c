(** Next-state functions extracted from a state space.

    For every non-input signal [u] the states are classified by the
    implied next value of [u]: the {e on-set} (next value 1), the
    {e off-set} (next value 0), and the {e don't-care} set (codes not
    reachable — synthesizing from a relative-timing pruned view
    therefore automatically gains the pruned codes as don't-cares).
    The excitation regions — where the signal is enabled to rise or to
    fall — drive generalized-C (set/reset) implementations and the
    monotonic-cover hazard check.  Lazy (early-enabling) relaxations are
    handled downstream at the cover level ({!Lazy_cover}).

    All sets are BDDs over the STG's signal indices. *)

type spec = {
  signal : int;
  on_set : Rtcad_logic.Bdd.t;
  off_set : Rtcad_logic.Bdd.t;
  dc_set : Rtcad_logic.Bdd.t;
  rise_region : Rtcad_logic.Bdd.t;  (** codes of states where [u+] is enabled *)
  fall_region : Rtcad_logic.Bdd.t;  (** codes of states where [u-] is enabled *)
  high_region : Rtcad_logic.Bdd.t;  (** codes where [u]=1 and stable *)
  low_region : Rtcad_logic.Bdd.t;  (** codes where [u]=0 and stable *)
}

exception Conflict of int * string
(** The view violates CSC for this signal: some code is both in the
    on-set and the off-set.  Carries the signal and a description. *)

val of_view : ('a, 'v) Rtcad_sg.Engine.impl -> 'v -> int -> spec
(** [of_view engine view u] computes the specification of signal [u]
    from an engine view (an explicit graph is its own view).  Raises
    {!Conflict} on CSC violation. *)

val all : ('a, 'v) Rtcad_sg.Engine.impl -> 'v -> spec list
(** Specifications for every non-input signal. *)
