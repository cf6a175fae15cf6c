(** The relative-timing synthesis flow of the paper's Figure 2.

    From a specification STG the flow performs: dummy contraction →
    reachability analysis → (timing-aware) state encoding → relative
    timing assumption generation and lazy state-graph reduction → logic
    synthesis with per-signal implementation selection → netlist emission
    → back-annotation of the timing constraints the implementation
    actually requires.

    Two modes:
    - {!Si}: the speed-independent flow (no timing assumptions; state
      encoding must not delay inputs; covers must be monotonic).
    - {!Rt}: the relative-timing flow with automatically generated
      assumptions, optional user (architecture/environment) assumptions
      such as Figure 6's "[ri-] before [li+]", and optional lazy cover
      relaxation. *)

type user_assumption = (string * Rtcad_stg.Stg.dir) * (string * Rtcad_stg.Stg.dir)
(** "first edge before second edge", by signal name. *)

type mode =
  | Si
  | Rt of {
      user : user_assumption list;
      allow_input_first : bool;  (** homogeneous-environment extension *)
      allow_lazy : bool;  (** lazy cover relaxation *)
    }

val rt_default : mode
(** [Rt] with no user assumptions, [allow_input_first = false],
    [allow_lazy = true]. *)

val fingerprint : mode -> string
(** Stable textual identity of a mode.  Together with the canonical
    [.g] text of the specification and the engine choice it uniquely
    determines the flow's output, which is what the synthesis server's
    content-addressed result cache keys on. *)

type signal_result = {
  signal_name : string;
  impl : Rtcad_synth.Implement.impl;
  literals : int;
  lazy_constraints : Rtcad_rt.Assumption.t list;
}

(** What the reachability stage produced.  The explicit flow carries the
    graphs themselves; the symbolic flow never materializes one, so only
    the state counts survive. *)
type reach =
  | Explicit_graphs of { sg_full : Rtcad_sg.Sg.t; sg : Rtcad_sg.Sg.t }
      (** [sg] is the graph used for synthesis (pruned under RT). *)
  | Symbolic_counts of { states_full : int; states_used : int }

type t = {
  mode : mode;
  stg : Rtcad_stg.Stg.t;  (** after contraction and state-signal insertion *)
  insertions : Rtcad_sg.Csc.insertion list;
  reach : reach;
  assumptions : Rtcad_rt.Assumption.t list;  (** all proposed (user + automatic) *)
  constraints : Rtcad_rt.Assumption.t list;
      (** back-annotated: assumptions the synthesis relied on (pruning)
          plus laziness constraints of the chosen covers *)
  signals : signal_result list;
  netlist : Rtcad_netlist.Netlist.t;
}

exception Synthesis_failure of string

val sg : t -> Rtcad_sg.Sg.t
(** The synthesis graph of an explicit flow.
    @raise Invalid_argument on a symbolic flow. *)

val num_states_full : t -> int
(** Reachable states of the full specification (either engine). *)

val num_states_used : t -> int
(** States of the (possibly pruned) space synthesis actually used. *)

(** {2 Keyed stages}

    The flow decomposes into five stages — normalize (parse +
    dummy-contract), encode (CSC resolution), reach (reachability),
    covers (assumptions + pruning + per-signal synthesis), emit
    (netlist + conformance) — each keyed by a content hash over
    everything that determines its output: the canonical [.g] text of
    the contracted specification (the round-trip-stable printer
    identity), the mode {!fingerprint}, the resolved engine, the state
    bound, and (for emit) the gate style.  The flow is deterministic in
    these inputs, so all five keys are computable up front without
    running anything, and a {!Store.t} passed to {!synthesize} can
    replay any suffix of the pipeline from cached artifacts. *)

type keys = {
  normalize : string;
  encode : string;
  reach_key : string;
  covers : string;
  emit : string;
}

val stage_keys :
  ?mode:mode ->
  ?engine:Rtcad_sg.Engine.t ->
  ?emit_style:Rtcad_synth.Emit.style ->
  ?max_states:int ->
  Rtcad_stg.Stg.t ->
  keys
(** The five stage keys for a specification under the given options
    (defaults as in {!synthesize}).  Invariant under any reformatting of
    the input that preserves its canonical text — whitespace, comments,
    element order, place renumbering — and distinct for every semantic
    change (structure, mode, engine, bound; [emit] additionally varies
    with style, [normalize] only with the text).  Raises [Failure] on a
    net whose marking the [.g] printer cannot express (such a spec has no
    canonical text; {!synthesize} treats it as uncacheable). *)

val synthesize :
  ?cache:Store.t ->
  ?mode:mode ->
  ?engine:Rtcad_sg.Engine.t ->
  ?emit_style:Rtcad_synth.Emit.style ->
  ?max_states:int ->
  Rtcad_stg.Stg.t ->
  t
(** Run the flow (default mode {!rt_default}).  The default emission style
    is static CMOS for {!Si} and footed domino for {!Rt}.  Raises
    {!Synthesis_failure} when state encoding cannot be completed or a
    cover violates its correctness check, and the STG/state-graph
    exceptions on malformed input.

    [engine] (default [Auto]) selects the reachability engine once, for
    the (contracted) specification, and the one pipeline — state
    encoding, reachability, assumption generation, pruning, next-state
    extraction, monotonicity checks — runs on it
    ({!Rtcad_sg.Engine.S}).  On the symbolic engine no explicit state
    graph is ever materialized, which is what lets specifications
    beyond the explicit bound reach a netlist.  Two properties of the
    engine, not of the caller, shape the run: lazy cover relaxation
    needs an explicit graph, so symbolic netlists may be slightly more
    conservative under {!Rt} (under {!Si} the two engines agree
    exactly); and per-signal synthesis fans out across worker domains
    only on the explicit engine, whose graphs may cross them.

    [cache] enables incremental synthesis: stage artifacts are looked up
    and stored under their {!stage_keys}.  On a full hit the flow value
    is reconstructed without running any analysis (bit-identical
    insertions, assumptions, covers, constraints and netlist; [reach]
    degrades to {!Symbolic_counts} since no graph is rebuilt).  When only
    the emission key misses — e.g. a new gate style over decided covers —
    emission and the conformance gate rerun from the cached covers.  On a
    cold run each stage's artifact is stored as it completes, and an
    encode-stage hit alone still skips the CSC search.  Independently of
    [cache], the symbolic reachability of edited specifications is
    re-seeded from the most recent compatible analysis in this process
    (delta reachability, {!Rtcad_sg.Symbolic.analyze_cached}). *)

val pp_report : Format.formatter -> t -> unit
(** Human-readable synthesis report: state counts, per-signal equations,
    constraints, netlist cost. *)
