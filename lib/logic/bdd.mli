(** Reduced ordered binary decision diagrams (ROBDDs).

    Nodes are hash-consed into a per-domain table, so structural equality
    of functions coincides with physical equality of their
    representations {e within a domain}.  Variables are non-negative
    integers; their order is a dynamic permutation over {e levels}
    (level 0 closest to the root).  The order starts as the identity
    (variable [v] at level [v]) and can be changed by {!reorder}; the
    current order is part of the domain state and survives
    {!clear_caches}.  {!restore_order} sifts back to the identity.

    Concurrency contract: every domain hash-conses into its own table
    (domain-local storage), so parallel tasks may build BDDs freely —
    but a BDD value must never be combined with, or compared to, a BDD
    built on another domain (node ids are only unique per domain).
    Build BDDs from scratch inside a parallel task and ship only id-free
    data (covers, counts, booleans) across the join.

    Memory: the unique table holds its nodes weakly.  A node stays alive
    exactly as long as something references it — an external BDD value,
    a live parent, or an operation-cache entry.  {!gc} (and
    {!clear_caches}, which calls it) drops the operation caches and runs
    a full major collection, reclaiming every node not pinned by an
    external reference. *)

type t

val zero : t
val one : t
val var : int -> t
(** [var i] is the function of the single variable [i].  [i >= 0]. *)

val nvar : int -> t
(** [nvar i] is the complement of [var i]. *)

val is_zero : t -> bool
val is_one : t -> bool

val equal : t -> t -> bool
val hash : t -> int
val id : t -> int
(** Unique node identifier (stable within a process). *)

val bnot : t -> t
val band : t -> t -> t
val bor : t -> t -> t
val bxor : t -> t -> t

val bdiff : t -> t -> t
(** [bdiff a b] is [a and not b], computed in one fused pass — the
    complement of [b] is never materialised as nodes.  This is the
    frontier-subtraction operator of the symbolic fixpoint. *)

val ite : t -> t -> t -> t
(** [ite f g h] is [(f and g) or (not f and h)]. *)

val cofactor : t -> int -> bool -> t
(** [cofactor f v b] substitutes constant [b] for variable [v]. *)

val exists : int list -> t -> t
(** Existential quantification over the given variables (single cached
    descent; the list need not be sorted). *)

val forall : int list -> t -> t

val rel_product : int list -> t -> t -> t
(** [rel_product vars f g] is [exists vars (band f g)] computed as one
    fused and-exists pass — the relational-product image operator.  The
    intermediate conjunction is never materialised. *)

val rel_product_unprime : int list -> t -> t -> t
(** [rel_product_unprime vars f g] is [unprime (rel_product vars f g)]
    in a single bottom-up pass — the image operator of the symbolic
    engine.  Requires the {!unprime} discipline (pairs on adjacent
    levels, even above odd) and that the even partner of every primed
    variable occurring in [f]/[g] is listed in [vars]; the intermediate
    primed product is never materialized. *)

val unprime : t -> t
(** Rename every odd variable [2i+1] to its even partner [2i].  The
    argument must not mention both members of any pair, and each pair
    must occupy adjacent levels (even above odd) in the current order —
    the invariant {!reorder} maintains when given pair groups.  Used to
    map primed next-state variables back to present-state ones. *)

val compose : t -> int -> t -> t
(** [compose f v g] substitutes the function [g] for variable [v] in [f]:
    [ite g (cofactor f v true) (cofactor f v false)]. *)

val top_var : t -> int
(** Root variable (the one at the shallowest level in this function).
    Raises [Invalid_argument] on constants. *)

val level_of : int -> int
(** Current level of a variable in this domain's order.  Equal to the
    variable itself until a {!reorder}. *)

val support : t -> int list
(** Variables the function depends on, ascending by variable number. *)

val eval : t -> (int -> bool) -> bool
(** [eval f env] evaluates under the assignment [env]. *)

val sat_count : t -> int -> int
(** [sat_count f n] is the number of satisfying assignments over variables
    [0 .. n-1] (all of which must contain the support of [f]). *)

val sat_count_over : int list -> t -> int
(** [sat_count_over vars f] counts satisfying assignments over exactly
    the listed variables, which must include the support of [f].  The
    count cache persists across calls with the same variable set and
    order, so counting a growing set each sweep only pays for new
    nodes. *)

val any_sat : t -> (int * bool) list option
(** A satisfying partial assignment (variables not listed are free), or
    [None] if the function is [zero]. *)

val subset : t -> t -> bool
(** [subset f g] iff [f] implies [g].  No result nodes are built. *)

val intersects : t -> t -> bool
(** [intersects f g] iff [f and g] is satisfiable, decided without
    building the conjunction. *)

val of_minterm : int -> bool array -> t
(** [of_minterm n values] is the minterm over variables [0 .. n-1] with the
    given polarities. *)

val minterm : (int * bool) list -> t
(** Conjunction of the given literals (variables absent from the list are
    unconstrained). *)

val node_count : t -> int
(** Number of distinct internal nodes (size of the DAG). *)

val clear_caches : unit -> unit
(** Drop the operation caches and reclaim unpinned nodes ({!gc}).  BDD
    values held by the caller, and the variable order, survive. *)

type gc_stats = { gc_before : int; gc_after : int; reclaimed : int }

val gc : unit -> gc_stats
(** Drop the operation caches and run a full major collection: every
    node not reachable from an external reference is removed from the
    unique table.  Returns the table population before/after. *)

type reorder_stats = {
  swaps : int;  (** adjacent-level swaps performed *)
  nodes_before : int;  (** live nodes when the pass started *)
  nodes_after : int;  (** estimated live nodes at the end *)
  positions_moved : int;  (** groups parked at a new position *)
}

val reorder : ?groups:int list list -> unit -> reorder_stats
(** One pass of Rudell-style sifting over the current domain's unique
    table.  Each group (default: every variable alone) is kept as a
    contiguous block of levels and moved through every position via the
    swap-adjacent-levels primitive, settling where the table is
    smallest.  Nodes are rewired in place, so existing BDD values remain
    valid (they denote the same functions).  Runs a {!gc} first.
    Groups must be contiguous in the current order and must not
    overlap; levels not covered by any group are sifted alone. *)

val restore_order : unit -> unit
(** Sift the order back to the identity permutation (variable [v] at
    level [v]).  No-op when the order is already the identity.
    Structure-sensitive consumers (cover extraction) call this to
    re-establish the canonical order after a {!reorder}. *)

type table_stats = {
  unique_nodes : int;  (** live nodes in the weak unique table *)
  op_cache_entries : int;  (** occupied slots across all op caches *)
  op_cache_capacity : int;  (** total slots across all op caches *)
  op_cache_hits : int;
  op_cache_lookups : int;
  reorders : int;  (** sifting passes run in this domain *)
  reorder_swaps : int;  (** cumulative adjacent-level swaps *)
  gc_runs : int;
  gc_reclaimed : int;  (** cumulative nodes reclaimed by {!gc} *)
}

val table_stats : unit -> table_stats
(** Health of the current domain's tables.  Feed these to the metrics
    registry (gauges) to watch hash-consing growth, cache effectiveness
    and reclaim totals.  Op caches are direct-mapped and grow by load
    factor up to a cap, so [op_cache_capacity] changes over time.
    Counting [unique_nodes] walks the whole weak table; poll
    {!live_estimate} instead on hot paths. *)

val live_estimate : unit -> int
(** O(1) upper bound on the unique-table population: exact immediately
    after a {!gc} or {!live_recount}, an overcount in between (nodes
    minted since are counted even once dead).  Intended for cheap
    per-sweep pressure checks that trigger {!gc}/{!reorder}. *)

val live_recount : unit -> int
(** Exact unique-table population (one weak-table walk), which also
    re-tightens {!live_estimate}'s bound.  Call when the cheap bound
    crosses a threshold to decide whether pressure is real. *)

val pp : Format.formatter -> t -> unit
(** Debug printer (shows the DAG shape, not a formula). *)
