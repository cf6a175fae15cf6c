(** Signal transition graphs (STGs).

    An STG is a safe Petri net whose transitions are labelled with signal
    edges ([li+], [ro-], …) or are silent ([ε], called {e dummy}).  Signals
    are classified as inputs (driven by the environment), outputs, or
    internal (invisible at the interface but implemented by the circuit,
    e.g. inserted state signals).

    The {!Build} submodule offers a by-name construction API used both by
    the [.g] parser and the built-in specification library. *)

type dir = Rise | Fall
type kind = Input | Output | Internal
type label = Edge of { signal : int; dir : dir } | Dummy

type t

val make :
  net:Petri.t ->
  labels:label array ->
  signal_names:string array ->
  kinds:kind array ->
  initial_values:bool array ->
  t
(** Raises [Invalid_argument] on size mismatches or out-of-range signals. *)

val net : t -> Petri.t
val label : t -> int -> label
val num_signals : t -> int
val signal_name : t -> int -> string
val signal_index : t -> string -> int
(** Raises [Not_found]. *)

val kind : t -> int -> kind
val initial_value : t -> int -> bool
val is_input : t -> int -> bool

val signals : t -> int list
val non_input_signals : t -> int list

val transitions_of : t -> int -> dir -> int list
(** All Petri transitions labelled with the given signal edge. *)

val pp_transition : t -> Format.formatter -> int -> unit
(** Prints [li+], [x-], or the dummy's name. *)

val pp : Format.formatter -> t -> unit

val opposite : dir -> dir

module Build : sig
  (** Imperative by-name STG construction.

      Transitions are referred to by strings: ["li+"], ["li-"], ["li+/2"]
      (second occurrence of the edge), or a declared dummy name.  Arcs
      between two transitions introduce an implicit place.  Explicit places
      may be declared and connected with {!arc_tp} / {!arc_pt}. *)

  type stg = t
  type t

  val create : unit -> t

  val signal : t -> kind -> ?initial:bool -> string -> unit
  (** Declare a signal.  Default initial value is [false]. *)

  val dummy : t -> string -> unit
  (** Declare a silent transition. *)

  val connect : t -> string -> string -> unit
  (** [connect b "li+" "lo+"] adds an implicit place from the first
      transition to the second, creating the transitions on first use. *)

  val place : t -> string -> unit
  val arc_tp : t -> string -> string -> unit
  (** Arc from transition to explicit place. *)

  val arc_pt : t -> string -> string -> unit
  (** Arc from explicit place to transition. *)

  val mark : t -> string -> unit
  (** Mark an explicit place. *)

  val mark_between : t -> string -> string -> unit
  (** Mark the implicit place between two connected transitions. *)

  val finish : t -> stg
  (** Raises [Failure] with a diagnostic if the construction is malformed
      (undeclared signals, unmarkable places, …). *)
end
