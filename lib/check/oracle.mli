(** Differential oracles: run an optimized kernel and its naive reference
    on the same seeded input and diff every observable, plus whole-flow
    invariant checks over the Figure-2 synthesis pipeline.

    Every oracle returns a {!verdict}: [Pass], [Fail] with a finding, or
    [Skip] when the case is outside the oracle's contract (e.g. the CSC
    insertion heuristic gives up on a random specification — that is a
    capability limit, not a correctness bug). *)

type finding = { oracle : string; detail : string }
type verdict = Pass | Fail of finding | Skip of string

val diff_bitset : ?ops:int -> Rtcad_util.Rng.t -> verdict
(** Replay a random operation stream ([add] / [remove] / [set] / [union] /
    [inter] / [diff] / [Builder] batches) on the word-packed
    {!Rtcad_util.Bitset} and the [bool list] model, checking after every
    step that all observables agree — membership, cardinality, elements,
    emptiness — plus the binary predicates ([subset], [disjoint],
    [equal], [equal_flip], [compare], [hash] consistency) against a
    second tracked pair. *)

val fast_sg_result : ?max_states:int -> Rtcad_stg.Stg.t -> Ref_sg.result
(** The canonical reachability summary via the optimized {!Rtcad_sg.Sg}
    builder, with its exceptions mapped onto {!Ref_sg.result}. *)

val diff_sg :
  ?fast:(Rtcad_stg.Stg.t -> Ref_sg.result) -> Rtcad_stg.Stg.t -> verdict
(** Diff the optimized reachability analysis against the textbook BFS of
    {!Ref_sg.explore}: state and edge fingerprints, deadlocks, and the
    malformed-input classification must all agree.  [fast] (default
    {!fast_sg_result}) exists so the test suite can emulate a broken
    kernel and check that the oracle catches and shrinks it. *)

val diff_assumptions : seed:int -> Rtcad_stg.Stg.t -> verdict
(** Diff what relative-timing assumption generation computes against
    its naive reference: the explicit and symbolic engines' concurrent
    pairs must be equal; on four timed runs (seeds [seed] to [seed + 3],
    the last without jitter) {!Rtcad_rt.Timed_sim.gap} must equal
    {!Ref_rt.min_gap} for every ordered transition pair, [None]
    included; and {!Rtcad_rt.Generate.automatic_of_pairs} must equal
    {!Ref_rt.automatic_of_pairs}, with and without [allow_input_first].
    [Skip] when the specification has no state graph. *)

val diff_sim : Rtcad_util.Rng.t -> verdict
(** Generate a random netlist and timed stimulus schedule, run the
    allocation-free {!Rtcad_netlist.Sim} and the sorted-agenda
    {!Ref_sim}, and diff final net values and canonicalized committed
    traces. *)

val diff_incremental :
  ?engine:Rtcad_sg.Engine.t -> Rtcad_stg.Stg.t -> Gen.edit list -> verdict
(** Differential edit-replay: apply the edit script step by step and, at
    every step (including the unedited base), synthesize the same
    specification through the incremental machinery — once with a live
    {!Rtcad_core.Store} and the warm in-process analysis pool (delta
    seeding, stage-key reuse), once more against the now-populated store
    (full cached reconstruction), and once from scratch with a cleared
    pool and cold caches.  All three must agree byte-for-byte on
    reports/netlists, or exactly on the failure verdict
    ([Synthesis_failure] / [Inconsistent] / [Unsafe] / [Too_large]).
    The pooled (possibly delta-seeded) symbolic reachability of every
    step is additionally compared to a from-scratch fixpoint for a
    bit-identical reachable set ({!Rtcad_sg.Symbolic.equal_reachable}).
    [Toggle_assumption] edits flip the RT mode's [allow_input_first]
    flag instead of editing the net. *)

val flow_invariants : Rtcad_stg.Stg.t -> verdict
(** End-to-end invariants of {!Rtcad_core.Flow.synthesize} in RT mode:
    the encoded state graph must actually satisfy CSC, and the emitted
    netlist must pass {!Rtcad_verify.Conformance} under the flow's own
    back-annotated constraints (re-verified via
    {!Rtcad_core.Check.minimal_constraints} when it does not).
    Synthesis refusals ([Synthesis_failure]) and verification bound
    blow-ups are [Skip]s. *)

val pp_verdict : Format.formatter -> verdict -> unit
