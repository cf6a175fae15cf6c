(** Complete State Coding resolution by state-signal insertion.

    A new internal signal [x] is inserted into the STG: [x+] is triggered
    by a set of existing transitions (AND-join), [x-] by another, and
    optional {e waiter} transitions are delayed until the new edge has
    fired.  Ordering places [x+ -> x-] and [x- -> x+] keep the new signal
    consistent.

    Two modes reflect the paper's distinction:
    - {e speed-independent} insertion must not delay input transitions and
      must preserve output persistency; waiters are used to sequence the
      new signal before the state-aliasing paths.
    - {e timing-aware} insertion (the Figure 5 flavour) keeps [x]
      concurrent (no waiters), leaving the disambiguation to relative
      timing assumptions; the CSC check is then performed on a caller-
      supplied view of the state graph (typically the RT-pruned one). *)

type mode = Speed_independent | Timing_aware

type waiter_marking =
  | Auto
      (** a waiter that occurs before the new edge in the canonical
          serialization starts with a token (it consumes the virtual
          previous edge of the new signal) *)
  | Unmarked
      (** no waiter place starts marked: every waiter is sequenced after
          the new edge already in the first cycle *)

type insertion = {
  signal_name : string;
  rise_triggers : int list;  (** transition indices of the host STG *)
  rise_waiters : int list;
  fall_triggers : int list;
  fall_waiters : int list;
  waiter_marking : waiter_marking;
}

val apply : Rtcad_stg.Stg.t -> insertion -> Rtcad_stg.Stg.t
(** Build the STG extended with the new signal.  The result's transitions
    are the host's (same indices) followed by [x+] then [x-]. *)

val resolve :
  ?mode:mode ->
  ?name:string ->
  ?view:('a -> 'v) ->
  ?max_states:int ->
  ?trigger_space:[ `Non_input | `All ] ->
  ?max_candidates:int ->
  ('a, 'v) Engine.impl ->
  Rtcad_stg.Stg.t ->
  (Rtcad_stg.Stg.t * insertion) option
(** Search for an insertion that makes the (viewed) state graph satisfy
    CSC while remaining safe, consistent, live and deadlock-free.  Returns
    the extended STG.  Returns [None] if the graph already satisfies CSC
    in the viewed graph or no candidate works.

    The given engine runs the whole search — the initial conflict check,
    the trial analysis of every candidate insertion, and the final
    verdicts; on the symbolic engine no explicit state graph is ever
    built.  CSC and deadlock verdicts are taken on [view a] for an
    analysis [a] (default: the unrestricted view) — typically its
    relative-timing pruning, which drops edges and can create conflicts
    the whole space does not have. *)

val resolve_all :
  ?mode:mode ->
  ?view:('a -> 'v) ->
  ?max_states:int ->
  ?max_signals:int ->
  ?max_candidates:int ->
  ('a, 'v) Engine.impl ->
  Rtcad_stg.Stg.t ->
  (Rtcad_stg.Stg.t * insertion list * 'a) option
(** Iterate {!resolve} (signals [x0], [x1], …) on one engine until the
    viewed state graph satisfies CSC, keeping fewer than [max_signals]
    (default 3) signals.  Returns the encoded STG, the insertions
    ([[]] when none was needed) and the engine's analysis of the encoded
    STG that the final conflict-free verdict was taken on; [None] when
    the conflicts could not be resolved.  Each STG on the way is
    analysed once for its verdict. *)

val pp_insertion : Rtcad_stg.Stg.t -> Format.formatter -> insertion -> unit
