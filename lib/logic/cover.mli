(** Sum-of-products covers and two-level minimization.

    Minimization uses the Minato–Morreale ISOP construction: given an
    interval [on <= f <= on+dc] of Boolean functions represented as BDDs it
    produces an irredundant sum of prime-like implicants — the classic
    two-level result used for complex-gate synthesis. *)

type t

val of_cubes : Cube.t list -> t
val cubes : t -> Cube.t list

val bottom : t
(** The empty cover (constant false). *)

val to_bdd : t -> Bdd.t
val eval : t -> (int -> bool) -> bool

val num_cubes : t -> int
val num_literals : t -> int

val irredundant_sop : on_set:Bdd.t -> dc_set:Bdd.t -> t
(** [irredundant_sop ~on_set ~dc_set] is a cover [c] with
    [on_set <= c <= on_set or dc_set], irredundant by construction.
    Raises [Invalid_argument] if [on_set] and [dc_set] overlap is allowed
    (they may overlap; the effective interval is
    [on_set - dc_set, on_set + dc_set]). *)

val single_cube_implementable : on_set:Bdd.t -> dc_set:Bdd.t -> Cube.t option
(** A single cube covering the interval, if one exists. *)

val is_monotonic_cover : t -> entered:Bdd.t list -> bool
(** Monotonic-cover condition used for hazard-freedom: each cube of the
    cover intersects at most one of the [entered] excitation regions.  The
    regions are given as BDDs over the same variables. *)

val cost_literals : t -> int
(** Total literal count — the usual proxy for complex-gate transistor cost
    (one transistor pair per literal). *)

val pp : (Format.formatter -> int -> unit) -> Format.formatter -> t -> unit
(** Prints e.g. [a b' + c d]. *)
