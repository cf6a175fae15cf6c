(** Content-addressed store: the one sharded cost-LRU cache with a
    checksummed disk tier.

    Two callers keep their artifacts here.  {!Flow} persists its keyed
    stages (state-signal insertions, reachability counts, per-signal
    covers, netlists), and the serve daemon keeps each whole response
    as an entry of stage [response]; a daemon's [--cache-dir] holds
    both.  Two tiers: a sharded in-memory table with cost-based LRU
    eviction, and an optional on-disk tier of checksummed entries
    written via an atomic temp-file rename (safe against concurrent
    writers and against a writer killed mid-write).  A disk entry whose
    header or checksum does not verify — a flipped byte, a truncated
    write, a foreign file — is counted, removed and reported as a miss,
    so corruption can only ever cost a recompute, never a wrong
    result.  Domains may share a store: its memory tier and counters
    sit behind one lock per store. *)

type t

val magic : string
(** Format tag of every disk entry: ["rtcad-flow-cache/1"]. *)

val create :
  ?namespace:string -> ?shards:int -> ?budget:int -> ?dir:string -> unit -> t
(** [create ()] is a memory-only store (defaults: namespace
    ["flow.cache"], 4 shards, 64 MiB in-memory budget).  The budget
    bounds in-memory retained cost (payload bytes + compute ms per
    entry), split evenly across shards, which are chosen by the key's
    hash prefix.  With [dir] every store also writes a checksummed entry
    under that directory (created if missing) and misses fall through to
    it; the disk tier is unbounded here — [gc] trims it.

    The store mirrors its counters into {!Rtcad_obs.Obs} under
    [namespace]: [<ns>.{hit,disk_hit,miss,store,evict,corrupt}], and,
    while recording is on, the gauges
    [<ns>.{entries,retained_bytes,retained_ms}] with a per-shard
    breakdown [<ns>.shard<i>.{entries,bytes,ms,evictions}].  Raises
    [Invalid_argument] on non-positive [shards] or [budget], [Sys_error]
    if [dir] cannot be created. *)

val key : string list -> string
(** Content key of a part list: hex md5 over the length-prefixed
    concatenation (injective over the list structure). *)

val find : t -> string -> string option
(** Memory first, then disk (a disk hit is promoted into memory at byte
    cost only — the disk header records no compute time). *)

val store : ?cost_ms:float -> stage:string -> t -> string -> string -> unit
(** [store ~stage t key payload] inserts into memory (evicting LRU
    entries over budget, never the entry just inserted) and best-effort
    persists to disk.  [stage] (no spaces) is recorded in the disk
    header for attribution; [cost_ms] weights the in-memory eviction
    cost. *)

type shard_stats = {
  sh_entries : int;
  sh_bytes : int;  (** retained payload bytes *)
  sh_ms : float;  (** retained recorded compute milliseconds *)
  sh_evictions : int;
}

type stats = {
  hits : int;  (** memory + disk *)
  disk_hits : int;
  misses : int;
  stores : int;
  evictions : int;  (** memory evictions, all shards (disk entries persist) *)
  corrupt : int;  (** disk entries rejected by checksum *)
  entries : int;  (** in-memory *)
  retained_bytes : int;  (** in-memory *)
  retained_ms : float;  (** in-memory *)
  shards : shard_stats list;  (** per-shard breakdown, in shard order *)
}

val stats : t -> stats

(** {2 Directory operations}

    The [rtsyn cache] subcommand works on a store directory without a
    live store.  All three scan the directory, removing entries that
    fail their checksum (and temp files abandoned by crashed writers). *)

type disk_entry = {
  de_key : string;
  de_stage : string;
  de_bytes : int;  (** whole file, header included *)
  de_mtime : float;
}

type disk_stats = {
  d_entries : int;
  d_bytes : int;
  d_corrupt : int;  (** undecodable entries found (and removed) by the scan *)
  d_stages : (string * int) list;  (** per-stage entry counts, sorted *)
}

val ls : dir:string -> disk_entry list
(** Entries sorted by (stage, key). *)

val disk_stats : dir:string -> disk_stats

val gc : dir:string -> budget:int -> int * int
(** Remove oldest entries (mtime, then key) until total bytes fit the
    budget.  Returns (entries removed, bytes remaining). *)
