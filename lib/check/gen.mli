(** Seeded random generators (with shrinking) for STGs, netlists and
    timed stimuli.

    {2 STGs}

    Random specifications are built as {e cactus marked graphs}: a set of
    transition cycles, each carrying one token, where every cycle after
    the first may share at most one transition with the cycles built
    before it.  Each signal owns exactly one rising and one falling
    transition inside its home cycle, so the result is safe, live,
    consistent and deadlock-free {e by construction} — any disagreement
    between the optimized kernels and the reference models on such an
    input is a genuine bug, never a malformed test case.  Choice and
    dummy-transition shapes are drawn from {!Rtcad_stg.Library} instead
    (the [Shape] plans), mirroring the paper's controller corpus.

    A {!plan} is the generator's intermediate representation; shrinking
    operates on plans (drop a cycle, drop a signal, unshare a
    transition, fall back to a canonical ladder of tiny specs) and every
    candidate is strictly smaller in place count, so shrink loops
    terminate. *)

type edge = { signal : int; dir : Rtcad_stg.Stg.dir }

type plan =
  | Shape of string  (** a named {!Rtcad_stg.Library} specification *)
  | Cycles of {
      kinds : Rtcad_stg.Stg.kind array;  (** per signal; at least one [Output] *)
      cycles : edge list list;
          (** each cycle in firing order; the token sits on the implicit
              place before the head *)
    }

val gen_plan : Rtcad_util.Rng.t -> max_places:int -> plan
(** A random cactus-marked-graph plan with at most [max_places] implicit
    places ([max_places >= 2]). *)

val gen_shape : Rtcad_util.Rng.t -> plan
(** A random library specification. *)

val stg_of_plan : plan -> Rtcad_stg.Stg.t
val places_of_plan : plan -> int
(** Number of places of the built STG ([Shape] plans count their net's
    places). *)

val shrink_plan : plan -> plan list
(** Strictly smaller candidate plans, most aggressive first.  [Shape]
    plans shrink onto the canonical ladder of tiny cycle plans. *)

val pp_plan : Format.formatter -> plan -> unit

(** {2 Edit scripts}

    Structural edits over a finished STG, driving the incremental-
    synthesis differential battery: additions are behaviour-preserving
    duplications (a duplicated transition keeps the old transition set a
    subset of the new one, so the delta-reachability seed stays valid; a
    duplicated place changes the place space and forces the seed
    fallback), removals may break consistency, safety or liveness — on
    purpose, since incremental and from-scratch synthesis must agree on
    failure verdicts too.  Indices are reduced modulo the live element
    count at application time, so a script survives base shrinking. *)

type edit =
  | Add_transition of int  (** duplicate transition [i mod nt] *)
  | Remove_transition of int  (** drop transition [i mod nt] (no-op if only one) *)
  | Add_place of int  (** duplicate place [i mod np], same arcs and marking *)
  | Remove_place of int  (** drop place [i mod np] (no-op if only one) *)
  | Rename_signal of int  (** fresh name for signal [i mod ns] *)
  | Toggle_assumption
      (** structurally a no-op; the oracle flips the RT mode's
          [allow_input_first] flag *)

val apply_edit : Rtcad_stg.Stg.t -> edit -> Rtcad_stg.Stg.t
val gen_edits : Rtcad_util.Rng.t -> int -> edit list
val pp_edit : Format.formatter -> edit -> unit

type edit_case = { base : plan; edits : edit list }

val shrink_edit_case : edit_case -> edit_case list
(** Strictly smaller candidates under the lexicographic measure (base
    places, edit count): drop one edit, or shrink the base keeping the
    script. *)

(** {2 Netlists and stimuli} *)

val gen_netlist : Rtcad_util.Rng.t -> Rtcad_netlist.Netlist.t
(** A random feedback-free netlist (2-3 primary inputs, up to ~10 gates
    over the whole gate library including state-holding C-elements),
    with randomized input initial values, settled, and {e every} net
    marked observable so simulator diffs compare complete traces. *)

val gen_stimuli :
  Rtcad_util.Rng.t ->
  Rtcad_netlist.Netlist.t ->
  (Rtcad_netlist.Netlist.net * bool * float) list
(** A timed input schedule [(net, value, at_ps)] in increasing time
    order: each event toggles one primary input, events are spaced a few
    hundred ps apart.  Apply with [drive] before running either
    simulator. *)

val horizon : (Rtcad_netlist.Netlist.net * bool * float) list -> float
(** A run horizon comfortably past the last stimulus event. *)
