(** Two-level implementations of next-state functions.

    Two implementation styles from the paper's flow:
    - {e complex gate}: one atomic gate computing the whole next-state
      function [u' = F(signals)];
    - {e generalized C} (gC, the domino/keeper style of the FIFO circuits):
      separate set and reset covers with state-holding behaviour
      [u' = S + u·R'] — set-dominant, with [S] and [R] disjoint on
      reachable codes by construction. *)

type style = Complex_gate | Generalized_c

type impl =
  | Complex of Rtcad_logic.Cover.t
  | Gc of { set : Rtcad_logic.Cover.t; reset : Rtcad_logic.Cover.t }

val synthesize : Nextstate.spec -> style -> impl
(** Minimize covers over the spec's don't-care freedom. *)

val next_value : impl -> current:bool -> (int -> bool) -> bool
(** Evaluate the implemented next value of the signal given the current
    value and an assignment of all signals. *)

val literal_cost : impl -> int
(** Total literal count (a transistor-count proxy: roughly two transistors
    per literal, plus the keeper for gC). *)

val respects_spec : Nextstate.spec -> impl -> bool
(** The implementation's next value matches the spec on every reachable
    code (on/off sets); don't-cares are free. *)

val monotonic :
  ('a, 'v) Rtcad_sg.Engine.impl -> 'v -> Nextstate.spec -> impl -> bool
(** The monotonic-cover condition for speed-independent hazard freedom:
    every cube of the (set) cover intersects the excitation region of at
    most one transition instance of the signal in the engine view, and
    likewise for the reset cover. *)

val monotonic_with :
  rises:Rtcad_logic.Bdd.t list ->
  falls:Rtcad_logic.Bdd.t list ->
  impl ->
  bool
(** {!monotonic} with the per-transition excitation instances supplied
    directly. *)

val pp : Rtcad_stg.Stg.t -> Format.formatter -> impl -> unit
(** Prints e.g. [lo = li x' + lo ri'] or [set: …  reset: …] with signal
    names. *)
