(** Synthesis-as-a-service: the long-running [rtsyn serve] daemon.

    The server speaks newline-delimited JSON: one request object per
    line in, one response object per line out, in request-arrival order.
    Work operations — [check], [synth], [sim], [fuzz] — run the same
    kernels as the corresponding CLI subcommands; control operations —
    [ping], [stats], [batch], [flush], [shutdown] — manage the session.
    Every response carries the request's [id] (echoed, or assigned
    sequentially when absent), so pipelined clients can match answers
    out of band even though the wire order is deterministic.

    {2 Dispatch, batching and load shedding}

    By default each work request is dispatched as it arrives.  After a
    [{"op":"batch"}] control message, work requests accumulate in a
    bounded queue and are dispatched together on [{"op":"flush"}] (or
    end of input) as one {e wave} over the {!Rtcad_par.Par} domain pool,
    with identical-key duplicates computed once.  A request arriving
    while the queue is full is {e shed}: it is answered with a
    structured [overloaded] error in its arrival slot and the session
    keeps going — the daemon never buffers unboundedly and never drops
    a connection to protect itself.  Under the socket driver
    ({!Mux.run}) waves also form {e automatically} across connections;
    see {!Mux}.

    {2 Robustness}

    A malformed line, an unknown operation, a spec parse error, an
    engine failure ([Synthesis_failure], [Inconsistent], [Unsafe]) or a
    [Too_large] bound all produce structured error responses; no request
    can kill the daemon.  Per-request wall-clock budgets
    ([timeout_ms]) are cooperative: the result of a request that
    finished past its budget is replaced by a [timeout] error (the
    kernels bound their own work via [max_states]).  SIGINT/SIGTERM
    drain pending work, flush responses and exit cleanly.

    {2 Caching}

    Results are content-addressed in a {!Rtcad_core.Store} (the
    response tier, built by {!Cache.create}): the key is the canonical
    [.g] rendering of the specification (so any textual variant of the
    same spec hits) plus the operation and an engine/options
    fingerprint ({!Rtcad_core.Flow.fingerprint} for synthesis).  Each
    response is stored as an entry of stage [response] that records its
    compute time — the currency of the store's cost-based eviction —
    and is answered ["cached":true] on a hit.  Cache and request
    counters are mirrored into {!Rtcad_obs.Obs} under [serve.*], which
    is how a served session reports its hit rate.

    {2 Determinism}

    For a fixed request stream the complete response stream is
    byte-identical at any job count: waves fan out over the
    deterministic pool, cache state evolves in arrival order, and
    responses are emitted in arrival order.  With per-request
    observability capture ([`Normalised]) waves run serially (capture
    snapshots global recording state) and each response embeds the
    normalised metric summary of exactly its own work. *)

type obs_mode =
  | Obs_off
  | Obs_normalised
      (** attach a normalised {!Rtcad_obs.Obs.summary_json} per request:
          byte-stable across machines and job counts *)
  | Obs_full  (** attach real wall-clock summaries *)

type config = {
  queue : int;  (** work-queue capacity (wave bound); clamped to >= 1 *)
  cache : Rtcad_core.Store.t;  (** the response tier ({!Cache.create}) *)
  engine : Rtcad_sg.Engine.t;  (** default reachability engine *)
  obs_mode : obs_mode;
  timeout_ms : float option;  (** per-request budget, [None] = unlimited *)
  max_states : int option;  (** default explicit-engine state bound *)
  flow_store : Rtcad_core.Store.t option;
      (** staged-flow artifact store threaded into [synth] misses: a
          request whose whole-response cache entry was evicted (or that
          varies only in style) can still replay the expensive stages
          from per-stage artifacts *)
}

val default_config :
  ?cache:Rtcad_core.Store.t -> ?flow_store:Rtcad_core.Store.t -> unit -> config
(** Queue 64, a fresh in-memory response tier ({!Cache.create}
    defaults: 8 shards, 32 MiB cost budget) unless given, [Auto] engine,
    no capture, no timeout, engine-default state bound, no flow
    store. *)

(** {2 Session core}

    The pure-ish engine behind both drivers, also used directly by the
    test battery: feed input lines, collect response lines. *)

type session

val session : config -> session

val feed : ?shed_work:bool -> session -> string -> string list
(** Process one input line; returns the response lines it produced (in
    order).  Batched work requests produce their responses at the next
    [flush]/{!finish}.  With [~shed_work:true] (driver backpressure —
    the mux sets it while a client's write queue is over budget)
    well-formed work requests are answered [overloaded] immediately;
    control requests still execute. *)

val finish : session -> string list
(** End of input: dispatch any pending batch and return its responses. *)

val stopped : session -> bool
(** True once a [shutdown] request has been processed. *)

val run_lines : config -> string list -> string list
(** [feed] every line, then {!finish} (stopping early after [shutdown]);
    the whole scripted-session protocol in one call. *)

(** {2 Waves — the driver protocol}

    {!feed_events} is the non-resolving form of {!feed}: instead of
    computing cache misses inline it hands back {!event}s, so a driver
    that multiplexes many sessions (the {!Mux} event loop) can merge
    the miss sets of several connections into one domain-pool fan-out.
    The contract: resolve each [Wave]'s {!wave_misses} (in any grouping,
    e.g. merged with other sessions' waves) via {!compute_and_store},
    then render its responses with {!finish_wave}, keeping every
    session's events in its own arrival order.  {!feed} [=]
    {!feed_events} + inline resolution. *)

type work = {
  w_op : string;
  w_engine : string option;  (** resolved engine, for the envelope *)
  w_key : string;  (** content-address ({!Rtcad_core.Store.key}) of the request *)
  w_compute : unit -> Json.t;  (** the result payload *)
}

type outcome = (Json.t * string option * float, exn) result
(** Result payload, optional captured-obs summary, elapsed compute
    milliseconds (the cache cost); or the failure. *)

type wave
(** A prepared batch: per-slot either a rendered response or a cache
    miss awaiting its key's outcome. *)

type event =
  | Lines of string list  (** rendered response lines, emit as-is *)
  | Wave of wave  (** resolve, then emit its responses *)

val feed_events : ?shed_work:bool -> session -> string -> event list
val finish_events : session -> event list

val wave_misses : wave -> work list
(** Distinct cache misses, first-arrival order (duplicate keys within
    the wave share one computation). *)

val compute_and_store : config -> work list -> (string * outcome) list
(** Compute the given works — in parallel over the domain pool unless
    per-request capture pins the session serial — and fill the cache
    with the successes in first-arrival order, recording each entry's
    compute time as its cost.  Returns [(w_key, outcome)] per work. *)

val finish_wave : find:(string -> outcome option) -> wave -> string list
(** Render the wave's responses in arrival order, resolving each miss
    slot through [find] (keyed by [w_key]). *)

(** {2 Protocol internals}

    Shared with the {!Mux} driver so transport-level failures speak the
    same structured-error dialect as the session. *)

type err

val err : string -> string -> err
(** [err kind message]; kinds are the documented set ([parse_error],
    [bad_request], [engine_failure], [too_large], [io_error], [timeout],
    [overloaded], [internal]). *)

val error_response : id:Json.t -> op:Json.t -> err -> Json.t

(** {2 Drivers}

    The stdio driver lives here; the concurrent Unix-socket driver is
    {!Mux.run}. *)

val run_stdio : config -> int
(** Serve requests from standard input to standard output until end of
    input, [shutdown], or a termination signal (drain, then exit).
    Returns the process exit code. *)

val with_signals : ((unit -> bool) -> 'a) -> 'a
(** Run the function with SIGINT/SIGTERM routed to the given
    should-stop flag, restoring the previous handlers afterwards. *)
