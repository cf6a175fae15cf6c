(** Symbolic BDD-based reachability and analysis of STGs.

    States (marking, code) are encoded as minterms over one BDD variable
    per place and one per signal; each transition becomes a
    relational-product image operator, and the reachable set is computed
    by a frontier-based fixpoint.  The engine is exact with respect to
    the explicit {!Sg.build}: same state space, same deadlocks, same CSC
    verdicts, and the same failures ({!Sg.Inconsistent},
    {!Rtcad_stg.Petri.Unsafe}, {!Sg.Too_large} when a bound is given).

    Variables are ordered by interleaving each signal with the
    lowest-indexed place its transitions touch, which keeps
    pipeline-shaped specifications (token rings) compact.

    Concurrency contract: a {!t} wraps BDDs, which are domain-local —
    analyse and query on one domain, ship only counts/booleans/bitsets
    across parallel joins. *)

type t

val analyze : ?max_states:int -> ?seed:t -> Rtcad_stg.Stg.t -> t
(** Run the symbolic fixpoint.  Unbounded by default — the point of the
    engine is state spaces the explicit builder cannot enumerate; pass
    [max_states] to replicate the explicit bound ({!Sg.Too_large} is
    raised when the marking count exceeds it).  Raises
    {!Sg.Inconsistent} or {!Rtcad_stg.Petri.Unsafe} exactly when
    {!Sg.build} would.

    [seed] is a prior analysis to re-seed the fixpoint from.  When the
    seed is compatible — the place/signal index spaces, variable-order
    assignment and initial (marking, code) are identical and every seed
    transition (label, preset, postset) still exists, so the STG is the
    seed's plus zero or more transitions and every previously reachable
    state is still reachable — the fixpoint starts from the seed's
    reachable set instead of the initial state and only discovers what
    the edit added.
    Otherwise the seed is ignored and the run starts from scratch.
    Results are bit-identical either way: the seeded start set re-enters
    the first frontier and is checked against the new STG's transitions
    exactly like discovered states. *)

val analyze_cached : ?max_states:int -> Rtcad_stg.Stg.t -> t
(** {!analyze} through a small domain-local pool of recent analyses: an
    STG whose canonical [.g] text matches a pooled analysis gets it back
    without running the fixpoint (a [max_states] below the pooled state
    count still raises {!Sg.Too_large}); otherwise the fixpoint runs,
    seeded from a compatible pooled analysis when one exists,
    and the result joins the pool.  Failures are never pooled.  The pool
    is per-domain (BDDs are domain-local) and bounded. *)

(** The domain-local analysis pool behind {!analyze_cached}. *)
module Seeds : sig
  val clear : unit -> unit
  (** Drop this domain's pooled analyses (tests and memory-sensitive
      campaign loops). *)

  val size : unit -> int
end

val stg : t -> Rtcad_stg.Stg.t

val num_states : t -> int
(** Number of reachable states, by BDD model counting. *)

val equal_reachable : t -> t -> bool
(** Bit-identical reachable state sets (BDD equality, which hash-consing
    makes physical).  Both analyses must come from the same domain.  The
    differential edit-replay battery uses this to prove a seeded
    (delta) fixpoint reached exactly the from-scratch set. *)

val deadlock_count : t -> int

val deadlock_markings : t -> Rtcad_util.Bitset.t list
(** Markings of the reachable deadlocked states. *)

val live_transitions : t -> bool
(** Every transition enabled in at least one reachable state. *)

val csc_conflict_signals : t -> int list
(** Non-input signals whose excitation differs between two reachable
    states sharing a code — the signals the explicit
    [Encoding.csc_conflicts] would report, ascending. *)

val has_csc : t -> bool

val is_output_persistent : t -> bool
(** Symbolic mirror of [Props.is_output_persistent]. *)

val materialize : ?max_states:int -> t -> Sg.t
(** Extract an explicit state graph, bit-identical to [Sg.build] on the
    same STG: the serial BFS is replayed (canonical ids, packed arrays)
    with every discovered state asserted against the symbolic reachable
    set, so a divergence between the engines fails loudly.  Default
    bound 200000 states, like {!Sg.build}. *)

val pp_stats : Format.formatter -> t -> unit

val publish_table_gauges : unit -> unit
(** While {!Rtcad_obs.Obs} records, set the [bdd.*] gauges from
    {!Rtcad_logic.Bdd.table_stats} on the calling domain.
    [bdd.unique_nodes] is the exact number of live nodes in that
    domain's unique table at the call, which costs one walk of the whole
    table; the op-cache, reorder and GC gauges are running totals.  The
    top-level operations call it once each, when they end: a flow on
    the symbolic engine ({!Rtcad_core.Flow.synthesize}) and
    [rtsyn check] on the symbolic engine.  An analysis does not. *)

(** {2 Synthesis-facing queries}

    Everything below returns BDDs built on the calling domain — the
    usual contract applies (do not ship them across domains). *)

val enabled_set : t -> int -> Rtcad_logic.Bdd.t
(** [enabled_set sym t]: states in which transition [t] may fire
    (preset marked, edge polarity consistent).  Not intersected with the
    reachable set. *)

val concurrent_pairs : t -> (int * int) list
(** Ordered pairs of distinct transitions enabled together in some
    reachable state — same contents and order as the explicit
    engine's scan of the graph ({!Engine.S.concurrent_pairs}). *)

type view
(** A state graph viewed through per-transition edge suppression — the
    symbolic mirror of a pruned explicit graph (the lazy state graph).
    The unrestricted view is the analysis itself. *)

val unrestricted : t -> view

val restrict : t -> allowed:(int -> Rtcad_logic.Bdd.t) -> view
(** [restrict sym ~allowed] recomputes reachability with transition [t]
    firing only from states in [allowed t] (clipped to its enabling
    set).  The result's states are a subset of the reachable set. *)

val view_base : view -> t
val view_reached : view -> Rtcad_logic.Bdd.t
val view_states : view -> int

val view_deadlock_free : view -> bool
(** No reachable state of the view lacks an outgoing kept edge. *)

val view_has_csc : view -> bool
(** {!has_csc} on the viewed graph. *)

type regions = {
  on : Rtcad_logic.Bdd.t;
  off : Rtcad_logic.Bdd.t;
  rise : Rtcad_logic.Bdd.t;
  fall : Rtcad_logic.Bdd.t;
  high : Rtcad_logic.Bdd.t;
  low : Rtcad_logic.Bdd.t;
}
(** Code sets over the signal-index variables [0..ns-1] — the space
    [Nextstate] specs live in. *)

val code_regions : view -> int -> regions
(** The next-state regions of a signal in the viewed graph, as code
    sets: what the explicit engine accumulates state by state.
    [on] and [off] may intersect — that intersection is the CSC
    conflict [Nextstate.of_view] reports as [Conflict]. *)

val excitation_regions : view -> int -> Rtcad_stg.Stg.dir -> Rtcad_logic.Bdd.t list
(** Per-transition excitation code sets for a signal's rising or
    falling edges, in [Stg.transitions_of] order — what the explicit
    engine collects state by state. *)
