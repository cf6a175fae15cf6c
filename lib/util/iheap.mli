(** Int-keyed, int-valued binary min-heap backed by parallel arrays.

    Pushes and pops allocate nothing (amortized over capacity
    doublings), which makes it suitable for the steady-state path of the
    event-driven simulator.  Equal keys pop in insertion order. *)

type t

val create : ?capacity:int -> unit -> t
val is_empty : t -> bool
val length : t -> int

val push : t -> int -> int -> unit
(** [push h key value]. *)

val top_key : t -> int
(** Smallest key.  Raises [Invalid_argument] on an empty heap. *)

val top_value : t -> int
(** Value paired with the smallest key.  Raises [Invalid_argument] on an
    empty heap. *)

val drop_min : t -> unit
(** Remove the minimum entry.  Raises [Invalid_argument] on an empty
    heap. *)

val clear : t -> unit
