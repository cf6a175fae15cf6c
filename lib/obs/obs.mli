(** Structured tracing and metrics, zero-cost when disabled.

    {2 Contract}

    Every recording entry point ({!incr}, {!set_gauge}, {!observe},
    {!span}) opens with a single load-and-branch on the enabled flag and
    does nothing else when recording is off — no allocation, no clock
    read, no thread-local lookup.  Instrumented kernels therefore show
    no measurable regression with observability disabled (enforced by
    the paired benchmark gate, [bench/ab.py], whose perfbench runs are
    untraced).

    {2 Determinism}

    Under {!Rtcad_par.Par} each domain records into a store keyed by its
    worker {e index} (not its domain id), and {!snapshot} merges stores
    in ascending index order: counters and histograms sum (associative,
    commutative — totals depend only on what work ran), gauges resolve
    lowest-index-first.  Since the pool's work distribution is itself
    deterministic, merged {e counter} totals are identical at any job
    count, which is what the golden corpus relies on. *)

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Enabling from a disabled state implicitly {!reset}s, so a recording
    session starts empty with its clock origin at the enable point. *)

val reset : unit -> unit
(** Discard all recorded metrics and spans and restart the clock. *)

(** {2 Recording} *)

val incr : ?by:int -> string -> unit
(** Bump a named counter (created on first use) in the calling worker's
    store.  Raises [Invalid_argument] if the name is already a gauge or
    histogram in that store. *)

val set_gauge : string -> float -> unit

val observe : string -> float -> unit
(** Record one observation into a named histogram (1-2-5 decade buckets
    from 1 to 1e9, plus overflow). *)

val hist_bounds : float array
(** The shared 1-2-5 bucket ladder ([1 .. 1e9]): bucket [i] counts
    observations [<= hist_bounds.(i)], with one extra overflow bucket.
    Hot loops that cannot afford a name lookup per observation (the
    RAPPID farm's per-instruction latencies) accumulate their own
    [int array] over this ladder and merge it in with
    {!observe_buckets}. *)

val observe_buckets : string -> counts:int array -> sum:float -> unit
(** Fold an externally-accumulated histogram into a named metric:
    [counts] must have [Array.length hist_bounds + 1] entries (the last
    is the overflow bucket) and [sum] is the exact total of the
    underlying observations.  Equivalent to the corresponding sequence
    of {!observe} calls, at the cost of one lookup. *)

val span : ?args:(unit -> (string * string) list) -> string -> (unit -> 'a) -> 'a
(** [span name f] times [f ()] and records a completed-span event
    (surviving exceptions, which are re-raised).  When disabled this is
    exactly [f ()].  [args] is only evaluated when enabled, so callers
    may compute labels lazily. *)

val timed : string -> (unit -> 'a) -> 'a * float
(** [timed name f] is [span name f] paired with its wall-clock duration
    in milliseconds — a stage cost the caller needs even when recording
    is off (the artifact store's eviction weights).  Unlike {!span} it
    reads the clock either way. *)

val time_ms : unit -> float
(** Wall clock in milliseconds (monotonic enough for span math). *)

(** {2 Snapshots} *)

type value =
  | Count of int
  | Gauge_v of float
  | Hist_v of { count : int; sum : float; buckets : (float * int) list }

type span_agg = { name : string; calls : int; wall_ms : float }

type span_ev = {
  sp_name : string;
  sp_ts_ms : float;
  sp_dur_ms : float;
  sp_args : (string * string) list;
}

type snapshot = {
  jobs : int;
  metrics : (string * value) list;  (** sorted by name *)
  span_aggs : span_agg list;  (** sorted by name *)
  events : (int * span_ev) list;  (** (worker index, event) *)
}

val snapshot : unit -> snapshot
(** Merge all worker stores (ascending worker index).  Safe to call with
    recording still enabled, e.g. at the end of a CLI run. *)

val metric : snapshot -> string -> value option
(** Look up a merged metric by name. *)

val counter : snapshot -> string -> int
(** Merged value of a counter metric; [0] when absent or not a counter.
    The synthesis server reports its cache hit rate from these. *)

val percentile_of_buckets : counts:int array -> float -> float
(** [percentile_of_buckets ~counts p] estimates the [p]-th percentile
    ([0 <= p <= 100]) of a dense bucket array over {!hist_bounds} (plus
    overflow): the bucket holding the requested rank is found and the
    value interpolated linearly inside it.  Deterministic in the counts
    alone, so merged histograms give identical percentiles at any job
    count.  [0.0] for an empty histogram, [infinity] when the rank
    lands in the overflow bucket. *)

val percentile : value -> float -> float option
(** {!percentile_of_buckets} applied to a snapshot histogram value
    ([Hist_v]); [None] for counters and gauges. *)

(** {2 Sinks} *)

val pp_summary : Format.formatter -> snapshot -> unit
(** Human-readable table: span wall-clock totals, then metrics. *)

val summary_json : ?normalised:bool -> snapshot -> string
(** Stable-order JSON object.  With [~normalised:true] the
    job-count and every wall-clock field are written as [0], making the
    output reproducible across machines and job counts — the form the
    golden corpus stores. *)

val trace_json : snapshot -> string
(** Chrome [trace_event] JSON array (load in [chrome://tracing] or
    Perfetto): one ["ph": "X"] event per span with [tid] = worker index,
    plus one ["ph": "C"] counter sample per counter metric. *)

val write_file : path:string -> string -> (unit, string) result
(** Write [data] to [path] in one shot.  On failure returns a clean
    [Error message] and leaves no partial file behind. *)
