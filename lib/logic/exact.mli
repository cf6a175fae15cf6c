(** Exact two-level minimization (Quine–McCluskey with Petrick's method).

    {!Cover.irredundant_sop} (ISOP) is fast and irredundant but not
    guaranteed minimum.  This module computes a {e minimum-cube} cover for
    small functions: prime implicants by iterated consensus over the
    ON ∪ DC minterms, essential-prime extraction, and Petrick's method on
    the cyclic core.  Exponential in the worst case — intended for the
    controller-sized functions of this library (≲ 12 variables).

    Used to quantify how close the ISOP covers are to optimal (they match
    on every controller in the test suite), mirroring the exact-vs-
    heuristic split of classical two-level tools. *)

val minimum_cover : ?max_vars:int -> ?dc_set:Bdd.t -> Bdd.t -> Cover.t
(** [minimum_cover on_set] is a cover with the minimum number of cubes
    satisfying [on_set - dc_set <= cover <= on_set + dc_set] ([dc_set]
    defaults to false).  Variables are [0 .. n-1] where [n] is the
    largest support variable + 1.  Raises [Invalid_argument] if the
    support exceeds [max_vars] (default 12) or the Petrick search
    explodes. *)

val primes : ?max_vars:int -> Bdd.t -> Cube.t list
(** All prime implicants of the function (no don't-cares). *)
