(** Naive reference bit set: a plain [bool list], one element per index.

    Deliberately the dumbest possible implementation — every operation is a
    list traversal with no packing, no words, no carries — so that it is
    obviously correct by inspection.  The differential oracle
    ({!Oracle.diff_bitset}) replays random operation streams against this
    model and the word-packed {!Rtcad_util.Bitset} and diffs every
    observable after every step. *)

type t = bool list
(** Element [i] of the list is the membership of [i]. *)

val create : int -> t

val capacity : t -> int
val mem : t -> int -> bool
val add : t -> int -> t
val remove : t -> int -> t
val set : t -> int -> bool -> t

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

val is_empty : t -> bool
val cardinal : t -> int
val subset : t -> t -> bool
val disjoint : t -> t -> bool
val equal : t -> t -> bool
val elements : t -> int list

val agrees : t -> Rtcad_util.Bitset.t -> bool
(** Every observable of the packed set matches the model: membership of
    every index, cardinality, emptiness and element list. *)
