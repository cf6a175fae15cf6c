(** Reachability engines: selection between explicit and symbolic
    reachability, and the one signature both implement.

    [Auto] picks the symbolic engine past a structural concurrency
    estimate (the number of initially marked places, i.e. independent
    tokens) and the explicit engine otherwise; [Explicit]/[Symbolic]
    force the choice.  The two engines are exact with respect to each
    other, so selection is purely a performance decision. *)

type t = Auto | Explicit | Symbolic

val to_string : t -> string
val of_string : string -> t option

val concurrency_estimate : Rtcad_stg.Stg.t -> int
(** Number of initially marked places — a structural lower bound on the
    concurrent tokens whose interleavings the explicit engine must
    enumerate. *)

val auto_token_threshold : int
(** [Auto] selects the symbolic engine at or above this estimate. *)

val select : t -> Rtcad_stg.Stg.t -> [ `Explicit | `Symbolic ]

val build :
  ?engine:t -> ?max_states:int -> ?par_threshold:int -> Rtcad_stg.Stg.t -> Sg.t
(** Build an explicit state graph with the selected engine (the symbolic
    path analyses then {!Symbolic.materialize}s — bit-identical output).
    [par_threshold] only affects the explicit path.  Default engine is
    [Auto]. *)

(** {2 The reachability signature}

    Everything the synthesis flow, the CSC search, pruning and
    next-state extraction ask of a reachability analysis.  An analysis
    ([t]) covers the whole reachable space; a [view] is that space seen
    through per-transition edge suppression (the lazy state graph of
    relative-timing pruning).  Both engines answer every query exactly
    alike; they differ only in the two capabilities {!S.portable} and
    {!S.graph}. *)

module type S = sig
  type t
  type view

  val portable : bool
  (** Analyses and views may be read on a domain other than the one
      that built them.  Explicit graphs can; BDDs are domain-local, so
      work over a symbolic analysis stays on the calling domain. *)

  val analyze : ?max_states:int -> Rtcad_stg.Stg.t -> t
  (** Analyse on the calling domain, reusing earlier work when the
      engine keeps any ({!Symbolic.analyze_cached}).  Raises
      {!Sg.Inconsistent}, {!Sg.Too_large} or {!Rtcad_stg.Petri.Unsafe}. *)

  val trial : ?max_states:int -> Rtcad_stg.Stg.t -> t
  (** {!analyze} from scratch, safe to run on a worker domain. *)

  val stg : t -> Rtcad_stg.Stg.t
  val num_states : t -> int

  val live : t -> bool
  (** Every transition fires somewhere in the reachable space. *)

  val output_persistent : t -> bool

  val concurrent_pairs : t -> (int * int) list
  (** Ordered pairs of distinct transitions enabled together in some
      reachable state, sorted. *)

  val unrestricted : t -> view

  val prune : t -> (int * int) list -> view * (int * int) list
  (** [prune a orders]: each order [(first, second)] with
      [first <> second] drops every [second] edge out of a state in
      which [first] is also enabled; the view keeps the states still
      reachable.  Also returns the orders that dropped an edge out of a
      surviving state. *)

  val view_stg : view -> Rtcad_stg.Stg.t
  val view_states : view -> int

  val deadlock_free : view -> bool
  (** No reachable state of the view lacks an outgoing kept edge. *)

  val has_csc : view -> bool
  (** Some non-input signal's excitation differs between two states of
      the view sharing a code. *)

  val code_regions : view -> int -> Symbolic.regions
  (** A signal's next-state regions in the view, as code sets over the
      signal-index variables. *)

  val excitation_regions :
    view -> int -> Rtcad_stg.Stg.dir -> Rtcad_logic.Bdd.t list
  (** Per-transition excitation code sets for a signal's rising or
      falling edges, in [Stg.transitions_of] order. *)

  val graph : view -> Sg.t option
  (** The view as an explicit state graph, when the engine has one —
      what lazy cover relaxation needs for its per-state walks. *)
end

type ('a, 'v) impl = (module S with type t = 'a and type view = 'v)

type any = Any : ('a, 'v) impl -> any

val explicit : (Sg.t, Sg.t) impl
(** {!Sg.build} graphs; a view is the pruned graph.  Portable. *)

val symbolic : (Symbolic.t, Symbolic.view) impl
(** {!Symbolic} analyses through the domain-local analysis pool;
    worker trials run {!Symbolic.analyze}.  Not portable; no graph. *)

val implementation : [ `Explicit | `Symbolic ] -> any

val code_minterm : Sg.t -> int -> Rtcad_logic.Bdd.t
(** Characteristic minterm of a state's code, over the signal-index
    variables. *)
