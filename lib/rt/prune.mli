(** Concurrency reduction of a state space under relative-timing
    assumptions — the "lazy state graph" of the paper's Figure 2 — on
    either reachability engine.

    An assumption [a before b] removes every edge firing [b] from a state
    in which [a] is also enabled.  The reachable subspace is then
    recomputed.  The assumptions that actually removed an edge from a
    surviving state are the {e used} ones; these are the candidates for
    back-annotation as required timing constraints. *)

type 'v result = {
  pruned : 'v;  (** the reduced state space, as a view of the engine *)
  used : Assumption.t list;  (** assumptions that removed a reachable edge *)
}

exception Deadlock
(** Pruning a deadlock-free space left a reachable state with no
    successors: the assumption set is contradictory for this
    specification. *)

val apply :
  ('a, 'v) Rtcad_sg.Engine.impl -> 'a -> Assumption.t list -> 'v result
(** Raises {!Deadlock} if pruning introduces a deadlock (contradictory
    assumptions). *)

val apply_consistent :
  ('a, 'v) Rtcad_sg.Engine.impl -> 'a -> Assumption.t list -> 'v result
(** Like {!apply}, but when the full set deadlocks, fall back to a
    maximal consistent subset (greedy, in list order) instead of
    raising.  Automatically generated assumption sets can be
    contradictory on specifications with independent concurrent cycles —
    the timed simulations that propose them consistently order
    transitions that the unbounded-delay semantics does not. *)

val pruned_codes : full:Rtcad_sg.Sg.t -> pruned:Rtcad_sg.Sg.t -> Rtcad_logic.Bdd.t
(** Characteristic function (over signal variables) of the codes reachable
    in [full] but not in [pruned] — the extra global don't-care set that
    relative timing buys for logic minimization. *)
