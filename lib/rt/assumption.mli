(** Relative timing assumptions and constraints.

    An assumption ["a before b"] states that whenever the transitions [a]
    and [b] of an STG are both enabled, [a] fires first.  Assumptions are
    used during synthesis to prune concurrency from the state graph; the
    subset that the implementation actually relies on is back-annotated as
    {e constraints} that the physical design must satisfy (Figure 2 of the
    paper). *)

type origin =
  | User  (** supplied by the designer (architecture / environment) *)
  | Automatic  (** derived from the delay model *)
  | Laziness  (** produced by lazy (early-enabling) cover relaxation *)

type t = {
  first : int;  (** transition index that fires first *)
  second : int;  (** transition index that must wait *)
  origin : origin;
}

val before : ?origin:origin -> int -> int -> t
(** [before a b] is the assumption "a before b" (default origin [User]). *)

val of_edges :
  Rtcad_stg.Stg.t ->
  ?origin:origin ->
  string * Rtcad_stg.Stg.dir ->
  string * Rtcad_stg.Stg.dir ->
  t list
(** [of_edges stg ("ri", Fall) ("li", Rise)] builds one assumption per pair
    of transition occurrences of the two signal edges.  Raises [Not_found]
    on unknown signals. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val pp : Rtcad_stg.Stg.t -> Format.formatter -> t -> unit
(** Prints e.g. [ri- before li+ (user)]. *)
