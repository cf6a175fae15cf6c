(* Hash-consed ROBDD with a per-domain weak unique table, direct-mapped
   operation caches and dynamic variable reordering.

   The tables live in domain-local storage so that independent tasks of a
   parallel region (per-signal synthesis, CSC trial insertions, fuzz
   cases) can build BDDs concurrently without sharing mutable state.  The
   contract is that BDD values never migrate between domains: node ids
   are only unique per domain, so a node built on one domain must not be
   combined with (or compared to) nodes built on another.  All call sites
   in this repository construct their BDDs from scratch inside the task
   and ship only id-free data (cube covers, counts, bools) across the
   join.  Each entry point fetches the domain state once and threads it
   through the recursion, keeping the DLS lookup off the inner loops.

   Garbage collection.  The unique table holds its nodes weakly: a node
   is pinned exactly as long as some OCaml value references it (an
   external root, a cached op result, or a live parent node), and the
   runtime's major collector reclaims the rest.  [gc] forces a full
   cycle after dropping the op caches (whose strong references would
   otherwise pin every memoized intermediate) and reports the reclaim;
   [clear_caches] does the same so long campaigns (bench reps, fuzz
   cases) return the table to its pinned baseline instead of accreting
   forever.

   Variable order.  Every variable [v] sits at a level [level.(v)]; all
   ordering decisions (branch choice in the binary ops, cofactor early
   exit, cube construction, minterm building, model counting) go through
   the level maps, with a fast path when the order is the identity.
   [reorder] runs one pass of Rudell-style sifting built on an
   in-place swap-adjacent-levels primitive: a node's record is rewired
   to the swapped shape without changing its identity, so every live BDD
   value (and every op-cache entry, which memoizes functions of node
   identities) remains valid across a reorder.  The order is part of the
   domain state and survives [clear_caches]; [restore_order] sifts back
   to the identity permutation. *)

type t = Zero | One | Node of node

and node = {
  mutable var : int;
  mutable lo : t;
  mutable hi : t;
  nid : int;
  (* The one canonical [Node] box for this record, so that physical
     equality on [t] values coincides with physical equality on the
     hash-consed records.  Set once, right after the record wins the
     unique-table merge. *)
  mutable self : t;
}

let id = function Zero -> 0 | One -> 1 | Node n -> n.nid
let equal a b = a == b
let hash t = id t

(* Weak hash set of nodes: the unique table.  Liveness is OCaml
   reachability, so dropping the last reference to a BDD value is what
   un-pins its nodes. *)
module Weak_table = Weak.Make (struct
  type nonrec t = node

  let equal a b = a.var = b.var && a.lo == b.lo && a.hi == b.hi

  let hash n =
    (n.var * 0x9e3779b1)
    lxor (id n.lo * 0x85ebca6b)
    lxor (id n.hi * 0xc2b2ae35)
    land max_int
end)

(* --- direct-mapped operation caches ----------------------------------- *)

(* CUDD-style computed tables: power-of-two arrays probed by a
   multiplicative hash of up to three int keys, overwriting on collision.
   No per-probe allocation (no tuple keys, no option results), bounded
   memory, and a load-factor-driven growth: when more than half the slots
   are occupied the table quadruples (up to a cap), re-placing the
   surviving entries.  Eviction only costs recomputation — results are
   exact either way. *)

let absent = Node { var = -2; lo = Zero; hi = Zero; nid = -2; self = Zero }

type tcache = {
  mutable k1 : int array; (* -1 = empty slot *)
  mutable k2 : int array;
  mutable k3 : int array;
  mutable data : t array;
  mutable mask : int;
  mutable occupied : int;
  mutable lookups : int;
  mutable hits : int;
  max_bits : int;
}

let tcache_create bits ~max_bits =
  let n = 1 lsl bits in
  {
    k1 = Array.make n (-1);
    k2 = Array.make n 0;
    k3 = Array.make n 0;
    data = Array.make n absent;
    mask = n - 1;
    occupied = 0;
    lookups = 0;
    hits = 0;
    max_bits;
  }

let[@inline] cache_slot mask a b c =
  ((a * 0x9e3779b1) lxor (b * 0x85ebca6b) lxor (c * 0xc2b2ae35)) land mask

let tcache_clear c =
  Array.fill c.k1 0 (Array.length c.k1) (-1);
  Array.fill c.data 0 (Array.length c.data) absent;
  c.occupied <- 0

(* Returns [absent] on miss; never stored as a value. *)
let[@inline] tcache_find c a b d =
  c.lookups <- c.lookups + 1;
  let i = cache_slot c.mask a b d in
  if c.k1.(i) = a && c.k2.(i) = b && c.k3.(i) = d then begin
    c.hits <- c.hits + 1;
    c.data.(i)
  end
  else absent

let tcache_grow c =
  let n = Array.length c.k1 * 4 in
  let k1 = Array.make n (-1)
  and k2 = Array.make n 0
  and k3 = Array.make n 0
  and data = Array.make n absent in
  let mask = n - 1 in
  let occupied = ref 0 in
  Array.iteri
    (fun i a ->
      if a >= 0 then begin
        let j = cache_slot mask a c.k2.(i) c.k3.(i) in
        if k1.(j) < 0 then incr occupied;
        k1.(j) <- a;
        k2.(j) <- c.k2.(i);
        k3.(j) <- c.k3.(i);
        data.(j) <- c.data.(i)
      end)
    c.k1;
  c.k1 <- k1;
  c.k2 <- k2;
  c.k3 <- k3;
  c.data <- data;
  c.mask <- mask;
  c.occupied <- !occupied

let[@inline] tcache_store c a b d v =
  if 2 * c.occupied > Array.length c.k1 && Array.length c.k1 < 1 lsl c.max_bits
  then tcache_grow c;
  let i = cache_slot c.mask a b d in
  if c.k1.(i) < 0 then c.occupied <- c.occupied + 1;
  c.k1.(i) <- a;
  c.k2.(i) <- b;
  c.k3.(i) <- d;
  c.data.(i) <- v

(* Int-valued variant (model counts, boolean predicates as 0/1).  Misses
   return [min_int]. *)
type icache = {
  mutable ik1 : int array;
  mutable ik2 : int array;
  mutable ik3 : int array;
  mutable idata : int array;
  mutable imask : int;
  mutable ioccupied : int;
  mutable ilookups : int;
  mutable ihits : int;
  imax_bits : int;
}

let icache_create bits ~max_bits =
  let n = 1 lsl bits in
  {
    ik1 = Array.make n (-1);
    ik2 = Array.make n 0;
    ik3 = Array.make n 0;
    idata = Array.make n 0;
    imask = n - 1;
    ioccupied = 0;
    ilookups = 0;
    ihits = 0;
    imax_bits = max_bits;
  }

let icache_clear c =
  Array.fill c.ik1 0 (Array.length c.ik1) (-1);
  c.ioccupied <- 0

let[@inline] icache_find c a b d =
  c.ilookups <- c.ilookups + 1;
  let i = cache_slot c.imask a b d in
  if c.ik1.(i) = a && c.ik2.(i) = b && c.ik3.(i) = d then begin
    c.ihits <- c.ihits + 1;
    c.idata.(i)
  end
  else min_int

let icache_grow c =
  let n = Array.length c.ik1 * 4 in
  let k1 = Array.make n (-1)
  and k2 = Array.make n 0
  and k3 = Array.make n 0
  and data = Array.make n 0 in
  let mask = n - 1 in
  let occupied = ref 0 in
  Array.iteri
    (fun i a ->
      if a >= 0 then begin
        let j = cache_slot mask a c.ik2.(i) c.ik3.(i) in
        if k1.(j) < 0 then incr occupied;
        k1.(j) <- a;
        k2.(j) <- c.ik2.(i);
        k3.(j) <- c.ik3.(i);
        data.(j) <- c.idata.(i)
      end)
    c.ik1;
  c.ik1 <- k1;
  c.ik2 <- k2;
  c.ik3 <- k3;
  c.idata <- data;
  c.imask <- mask;
  c.ioccupied <- !occupied

let[@inline] icache_store c a b d v =
  if
    2 * c.ioccupied > Array.length c.ik1
    && Array.length c.ik1 < 1 lsl c.imax_bits
  then icache_grow c;
  let i = cache_slot c.imask a b d in
  if c.ik1.(i) < 0 then c.ioccupied <- c.ioccupied + 1;
  c.ik1.(i) <- a;
  c.ik2.(i) <- b;
  c.ik3.(i) <- d;
  c.idata.(i) <- v

(* --- domain state ------------------------------------------------------ *)

type state = {
  unique : Weak_table.t;
  mutable next_id : int;
  (* level.(v) is the position of variable v (0 = root-most); var_at is
     the inverse permutation.  Both extended by the identity on demand.
     [identity] short-circuits every level lookup on the (common) path
     where no reorder has happened. *)
  mutable level : int array;
  mutable var_at : int array;
  mutable identity : bool;
  (* Nodes carrying each variable: maintained by [mk] and the swap
     primitive, refreshed exactly by [gc]/[reorder] (dead nodes drift it
     upward in between — it is a sifting metric, not an invariant). *)
  mutable var_count : int array;
  mutable reorders : int;
  mutable reorder_swaps : int;
  mutable gc_runs : int;
  mutable reclaimed_total : int;
  (* Cheap population bound: live nodes at the last collection plus ids
     minted since.  [Weak_table.count] walks every bucket, far too slow
     for a per-sweep pressure check. *)
  mutable pop_floor : int;
  mutable id_at_gc : int;
  (* Validity tag for the persistent model-count cache: the var-set cube
     id it was built for, and the order generation (bumped by every
     reorder/restore, which change ranks). *)
  mutable sat_gen : int;
  mutable sat_tag : int;
  mutable sat_seen_gen : int;
  mutable sat_rank : int array;
  mutable sat_width : int;
  not_c : tcache;
  and_c : tcache;
  or_c : tcache;
  xor_c : tcache;
  diff_c : tcache;
  exists_c : tcache;
  forall_c : tcache;
  andex_c : tcache;
  andexu_c : tcache;
  unprime_c : tcache;
  pred_c : icache; (* leq / intersects, discriminated by k3 *)
  sat_c : icache;
}

let state_key =
  Domain.DLS.new_key (fun () ->
      {
        unique = Weak_table.create 4096;
        next_id = 2;
        level = Array.init 64 Fun.id;
        var_at = Array.init 64 Fun.id;
        identity = true;
        var_count = Array.make 64 0;
        reorders = 0;
        reorder_swaps = 0;
        gc_runs = 0;
        reclaimed_total = 0;
        pop_floor = 0;
        id_at_gc = 2;
        sat_gen = 0;
        sat_tag = -1;
        sat_seen_gen = -1;
        sat_rank = [||];
        sat_width = 0;
        not_c = tcache_create 11 ~max_bits:20;
        and_c = tcache_create 13 ~max_bits:22;
        or_c = tcache_create 13 ~max_bits:22;
        xor_c = tcache_create 11 ~max_bits:20;
        diff_c = tcache_create 12 ~max_bits:21;
        exists_c = tcache_create 12 ~max_bits:21;
        forall_c = tcache_create 9 ~max_bits:18;
        andex_c = tcache_create 13 ~max_bits:22;
        andexu_c = tcache_create 13 ~max_bits:22;
        unprime_c = tcache_create 9 ~max_bits:18;
        pred_c = icache_create 11 ~max_bits:20;
        sat_c = icache_create 11 ~max_bits:20;
      })

let state () = Domain.DLS.get state_key

let grow_vars st v =
  let n = Array.length st.level in
  if v >= n then begin
    let n' = max (v + 1) (2 * n) in
    let level = Array.init n' (fun i -> if i < n then st.level.(i) else i) in
    let var_at = Array.init n' (fun i -> if i < n then st.var_at.(i) else i) in
    let var_count =
      Array.init n' (fun i -> if i < n then st.var_count.(i) else 0)
    in
    st.level <- level;
    st.var_at <- var_at;
    st.var_count <- var_count
  end

let[@inline] lvl st v = if st.identity then v else st.level.(v)

(* Variable of the shallower (closer to the root) of two nodes. *)
let[@inline] top2 st va vb =
  if st.identity then min va vb
  else if st.level.(va) <= st.level.(vb) then va
  else vb

let all_tcaches st =
  [
    st.not_c; st.and_c; st.or_c; st.xor_c; st.diff_c; st.exists_c;
    st.forall_c; st.andex_c; st.andexu_c; st.unprime_c;
  ]

let drop_op_caches st =
  List.iter tcache_clear (all_tcaches st);
  icache_clear st.pred_c;
  icache_clear st.sat_c;
  st.sat_tag <- -1

(* Reclaim: unpinned nodes die on a full major cycle once the op caches
   stop holding them. *)
type gc_stats = { gc_before : int; gc_after : int; reclaimed : int }

let gc_st st =
  let before = Weak_table.count st.unique in
  drop_op_caches st;
  Gc.full_major ();
  let after = Weak_table.count st.unique in
  Array.fill st.var_count 0 (Array.length st.var_count) 0;
  Weak_table.iter
    (fun n ->
      grow_vars st n.var;
      st.var_count.(n.var) <- st.var_count.(n.var) + 1)
    st.unique;
  st.gc_runs <- st.gc_runs + 1;
  st.reclaimed_total <- st.reclaimed_total + max 0 (before - after);
  st.pop_floor <- after;
  st.id_at_gc <- st.next_id;
  { gc_before = before; gc_after = after; reclaimed = before - after }

let gc () = gc_st (state ())

let clear_caches () =
  (* Dropping the op caches un-pins their memoized intermediates; the
     full major cycle then returns the weak unique table to whatever the
     caller still references (the pinned baseline), instead of letting
     bench reps and fuzz cases accrete garbage forever. *)
  ignore (gc_st (state ()))

type table_stats = {
  unique_nodes : int;
  op_cache_entries : int;
  op_cache_capacity : int;
  op_cache_hits : int;
  op_cache_lookups : int;
  reorders : int;
  reorder_swaps : int;
  gc_runs : int;
  gc_reclaimed : int;
}

let table_stats () =
  let st = state () in
  let entries = ref (st.pred_c.ioccupied + st.sat_c.ioccupied) in
  let capacity =
    ref (Array.length st.pred_c.ik1 + Array.length st.sat_c.ik1)
  in
  let hits = ref (st.pred_c.ihits + st.sat_c.ihits) in
  let lookups = ref (st.pred_c.ilookups + st.sat_c.ilookups) in
  List.iter
    (fun c ->
      entries := !entries + c.occupied;
      capacity := !capacity + Array.length c.k1;
      hits := !hits + c.hits;
      lookups := !lookups + c.lookups)
    (all_tcaches st);
  {
    unique_nodes = Weak_table.count st.unique;
    op_cache_entries = !entries;
    op_cache_capacity = !capacity;
    op_cache_hits = !hits;
    op_cache_lookups = !lookups;
    reorders = st.reorders;
    reorder_swaps = st.reorder_swaps;
    gc_runs = st.gc_runs;
    gc_reclaimed = st.reclaimed_total;
  }

(* O(1) upper bound on the unique-table population: exact right after a
   [gc], an overcount in between (nodes minted since are counted even
   once dead).  [table_stats] walks every weak bucket for the exact
   figure — far too slow for the per-sweep pressure polls of the
   fixpoint engines, whose valves only fire earlier on an overcount. *)
let live_estimate () =
  let st = state () in
  st.pop_floor + (st.next_id - st.id_at_gc)

(* Exact population, and re-tightens {!live_estimate}'s bound (minted
   intermediates that have already died stop being counted).  One weak
   table walk — call it when the cheap bound crosses a threshold, not
   per sweep. *)
let live_recount () =
  let st = state () in
  let n = Weak_table.count st.unique in
  st.pop_floor <- n;
  st.id_at_gc <- st.next_id;
  n

(* --- node construction ------------------------------------------------- *)

let mk st var lo hi =
  if lo == hi then lo
  else begin
    if var >= Array.length st.level then grow_vars st var;
    let cand = { var; lo; hi; nid = st.next_id; self = Zero } in
    let n = Weak_table.merge st.unique cand in
    if n == cand then begin
      cand.self <- Node cand;
      st.next_id <- st.next_id + 1;
      st.var_count.(var) <- st.var_count.(var) + 1
    end;
    n.self
  end

let zero = Zero
let one = One

let var i =
  if i < 0 then invalid_arg "Bdd.var";
  mk (state ()) i Zero One

let nvar i =
  if i < 0 then invalid_arg "Bdd.nvar";
  mk (state ()) i One Zero

let is_zero t = equal t Zero
let is_one t = equal t One

let top_var = function
  | Zero | One -> invalid_arg "Bdd.top_var: constant"
  | Node n -> n.var

let level_of v =
  if v < 0 then invalid_arg "Bdd.level_of";
  let st = state () in
  if v < Array.length st.level then st.level.(v) else v

(* --- boolean connectives ----------------------------------------------- *)

let rec bnot_st st t =
  match t with
  | Zero -> One
  | One -> Zero
  | Node n -> (
    match tcache_find st.not_c n.nid 0 0 with
    | r when r != absent -> r
    | _ ->
      let r = mk st n.var (bnot_st st n.lo) (bnot_st st n.hi) in
      tcache_store st.not_c n.nid 0 0 r;
      r)

let bnot t = bnot_st (state ()) t

let split v t =
  match t with
  | Zero | One -> (t, t)
  | Node n -> if n.var = v then (n.lo, n.hi) else (t, t)

let rec band_st st a b =
  match (a, b) with
  | Zero, _ | _, Zero -> Zero
  | One, x | x, One -> x
  | Node na, Node nb ->
    if na == nb then a
    else
      let i1, i2 =
        if na.nid < nb.nid then (na.nid, nb.nid) else (nb.nid, na.nid)
      in
      (match tcache_find st.and_c i1 i2 0 with
      | r when r != absent -> r
      | _ ->
        let v = top2 st na.var nb.var in
        let a0, a1 = split v a and b0, b1 = split v b in
        let r = mk st v (band_st st a0 b0) (band_st st a1 b1) in
        tcache_store st.and_c i1 i2 0 r;
        r)

let band a b = band_st (state ()) a b

let rec bor_st st a b =
  match (a, b) with
  | One, _ | _, One -> One
  | Zero, x | x, Zero -> x
  | Node na, Node nb ->
    if na == nb then a
    else
      let i1, i2 =
        if na.nid < nb.nid then (na.nid, nb.nid) else (nb.nid, na.nid)
      in
      (match tcache_find st.or_c i1 i2 0 with
      | r when r != absent -> r
      | _ ->
        let v = top2 st na.var nb.var in
        let a0, a1 = split v a and b0, b1 = split v b in
        let r = mk st v (bor_st st a0 b0) (bor_st st a1 b1) in
        tcache_store st.or_c i1 i2 0 r;
        r)

let bor a b = bor_st (state ()) a b

(* a ∧ ¬b, fused: the complement is never materialised as nodes.  The
   symbolic fixpoint subtracts the reached set from every image with
   this. *)
let rec bdiff_st st a b =
  match (a, b) with
  | Zero, _ | _, One -> Zero
  | a, Zero -> a
  | One, b -> bnot_st st b
  | Node na, Node nb ->
    if na == nb then Zero
    else (
      match tcache_find st.diff_c na.nid nb.nid 0 with
      | r when r != absent -> r
      | _ ->
        let v = top2 st na.var nb.var in
        let a0, a1 = split v a and b0, b1 = split v b in
        let r = mk st v (bdiff_st st a0 b0) (bdiff_st st a1 b1) in
        tcache_store st.diff_c na.nid nb.nid 0 r;
        r)

let bdiff a b = bdiff_st (state ()) a b

let rec bxor_st st a b =
  match (a, b) with
  | Zero, x | x, Zero -> x
  | One, x | x, One -> bnot_st st x
  | Node na, Node nb ->
    if na == nb then Zero
    else
      let i1, i2 =
        if na.nid < nb.nid then (na.nid, nb.nid) else (nb.nid, na.nid)
      in
      (match tcache_find st.xor_c i1 i2 0 with
      | r when r != absent -> r
      | _ ->
        let v = top2 st na.var nb.var in
        let a0, a1 = split v a and b0, b1 = split v b in
        let r = mk st v (bxor_st st a0 b0) (bxor_st st a1 b1) in
        tcache_store st.xor_c i1 i2 0 r;
        r)

let bxor a b = bxor_st (state ()) a b

let ite f g h =
  let st = state () in
  bor_st st (band_st st f g) (band_st st (bnot_st st f) h)

(* --- predicates (no result nodes built) -------------------------------- *)

let pred_leq = 1
let pred_inter = 2

let rec leq_st st a b =
  match (a, b) with
  | Zero, _ | _, One -> true
  | _, Zero -> false (* a <> Zero here *)
  | One, _ -> false (* b <> One here *)
  | Node na, Node nb ->
    na == nb
    ||
    (match icache_find st.pred_c na.nid nb.nid pred_leq with
    | r when r <> min_int -> r <> 0
    | _ ->
      let v = top2 st na.var nb.var in
      let a0, a1 = split v a and b0, b1 = split v b in
      let r = leq_st st a0 b0 && leq_st st a1 b1 in
      icache_store st.pred_c na.nid nb.nid pred_leq (Bool.to_int r);
      r)

let subset a b = leq_st (state ()) a b

let rec intersects_st st a b =
  match (a, b) with
  | Zero, _ | _, Zero -> false
  | One, _ | _, One -> true (* the other side is non-zero here *)
  | Node na, Node nb ->
    na == nb
    ||
    let i1, i2 =
      if na.nid < nb.nid then (na.nid, nb.nid) else (nb.nid, na.nid)
    in
    (match icache_find st.pred_c i1 i2 pred_inter with
    | r when r <> min_int -> r <> 0
    | _ ->
      let v = top2 st na.var nb.var in
      let a0, a1 = split v a and b0, b1 = split v b in
      let r = intersects_st st a0 b0 || intersects_st st a1 b1 in
      icache_store st.pred_c i1 i2 pred_inter (Bool.to_int r);
      r)

let intersects a b = intersects_st (state ()) a b

(* --- cofactor and quantification --------------------------------------- *)

let rec cofactor_st st t v lv b =
  match t with
  | Zero | One -> t
  | Node n ->
    if lvl st n.var > lv then t
    else if n.var = v then if b then n.hi else n.lo
    else mk st n.var (cofactor_st st n.lo v lv b) (cofactor_st st n.hi v lv b)

let cofactor t v b =
  let st = state () in
  if v >= Array.length st.level then grow_vars st v;
  cofactor_st st t v (lvl st v) b

(* The quantified variable set is represented as a positive cube BDD
   (v1 ∧ v2 ∧ …): hash-consing gives the set a canonical id to key the
   persistent caches on, and dropping already-passed variables is one
   pointer chase.  [cube_drop_below lv c] strips the cube's variables
   at levels above [lv] in the order (closer to the root); the residual
   cube is a pure function of (cube, level), so caching on (residual
   cube id, node id) is sound across calls. *)
let mk_cube st vars =
  let vars = List.sort_uniq Int.compare vars in
  List.iter (fun v -> if v >= Array.length st.level then grow_vars st v) vars;
  let by_level_desc =
    List.sort (fun a b -> Int.compare (lvl st b) (lvl st a)) vars
  in
  List.fold_left (fun acc v -> mk st v Zero acc) One by_level_desc

let rec cube_drop_below st lv cube =
  match cube with
  | Node n when lvl st n.var < lv -> cube_drop_below st lv n.hi
  | _ -> cube

let rec exists_cb st cube t =
  match t with
  | Zero | One -> t
  | Node n -> (
    let cube = cube_drop_below st (lvl st n.var) cube in
    if is_one cube then t
    else
      match tcache_find st.exists_c (id cube) n.nid 0 with
      | r when r != absent -> r
      | _ ->
        let r =
          match cube with
          | Node c when c.var = n.var ->
            let lo = exists_cb st c.hi n.lo in
            if is_one lo then One else bor_st st lo (exists_cb st c.hi n.hi)
          | _ -> mk st n.var (exists_cb st cube n.lo) (exists_cb st cube n.hi)
        in
        tcache_store st.exists_c (id cube) n.nid 0 r;
        r)

let rec forall_cb st cube t =
  match t with
  | Zero | One -> t
  | Node n -> (
    let cube = cube_drop_below st (lvl st n.var) cube in
    if is_one cube then t
    else
      match tcache_find st.forall_c (id cube) n.nid 0 with
      | r when r != absent -> r
      | _ ->
        let r =
          match cube with
          | Node c when c.var = n.var ->
            let lo = forall_cb st c.hi n.lo in
            if is_zero lo then Zero else band_st st lo (forall_cb st c.hi n.hi)
          | _ -> mk st n.var (forall_cb st cube n.lo) (forall_cb st cube n.hi)
        in
        tcache_store st.forall_c (id cube) n.nid 0 r;
        r)

let exists vars t =
  let st = state () in
  exists_cb st (mk_cube st vars) t

let forall vars t =
  let st = state () in
  forall_cb st (mk_cube st vars) t

(* Fused and-exists: [rel_product vars f g = exists vars (band f g)]
   without building the conjunction first.  This is the image operator of
   the symbolic reachability engine; fusing keeps intermediate
   conjunctions (which can be much larger than the result) out of the
   unique table, and the persistent (cube, f, g) cache carries shared
   work across the transitions of a sweep and across sweeps. *)
let rec andex_st st cube f g =
  match (f, g) with
  | Zero, _ | _, Zero -> Zero
  | One, One -> One
  | One, t | t, One -> exists_cb st cube t
  | Node nf, Node ng ->
    if nf == ng then exists_cb st cube f
    else begin
      let v = top2 st nf.var ng.var in
      let cube = cube_drop_below st (lvl st v) cube in
      if is_one cube then band_st st f g
      else
        let i1, i2 =
          if nf.nid < ng.nid then (nf.nid, ng.nid) else (ng.nid, nf.nid)
        in
        match tcache_find st.andex_c (id cube) i1 i2 with
        | r when r != absent -> r
        | _ ->
          let f0, f1 = split v f and g0, g1 = split v g in
          let r =
            match cube with
            | Node c when c.var = v ->
              let lo = andex_st st c.hi f0 g0 in
              if is_one lo then One else bor_st st lo (andex_st st c.hi f1 g1)
            | _ -> mk st v (andex_st st cube f0 g0) (andex_st st cube f1 g1)
          in
          tcache_store st.andex_c (id cube) i1 i2 r;
          r
    end

let rel_product vars f g =
  let st = state () in
  andex_st st (mk_cube st vars) f g

(* Rename every odd variable 2i+1 to its even partner 2i.  Used by the
   clustered transition relations of the symbolic engine to map primed
   next-state variables back to present-state ones.  Sound as long as (a)
   no even partner of a renamed variable occurs in the argument and (b)
   pairs occupy adjacent levels, even above odd — which the reorder
   group discipline maintains; then replacing level l+1 by level l never
   crosses another variable, so the bottom-up rebuild respects the
   order. *)
let rec unprime_st st t =
  match t with
  | Zero | One -> t
  | Node n -> (
    match tcache_find st.unprime_c n.nid 0 0 with
    | r when r != absent -> r
    | _ ->
      let v = if n.var land 1 = 1 then n.var - 1 else n.var in
      let r = mk st v (unprime_st st n.lo) (unprime_st st n.hi) in
      tcache_store st.unprime_c n.nid 0 0 r;
      r)

let unprime t = unprime_st (state ()) t

(* Fused image operator: [unprime (rel_product vars f g)] in one
   bottom-up pass.  Soundness of renaming on the fly: every renamed
   variable 2i+1 has its even partner 2i in the quantification cube
   (that is the image-operator contract), so 2i never occurs in the
   result; and the pair-adjacency discipline (even directly above odd)
   means dropping a node from level l+1 to level l crosses no other
   variable, so minting the result node at 2i instead of 2i+1 respects
   the order.  Skipping the intermediate primed BDD halves the node
   churn of the hot fixpoint path. *)
let rec andexu_st st cube f g =
  match (f, g) with
  | Zero, _ | _, Zero -> Zero
  | One, One -> One
  | One, t | t, One -> unprime_st st (exists_cb st cube t)
  | Node nf, Node ng ->
    if nf == ng then unprime_st st (exists_cb st cube f)
    else begin
      let v = top2 st nf.var ng.var in
      let cube = cube_drop_below st (lvl st v) cube in
      if is_one cube then unprime_st st (band_st st f g)
      else
        let i1, i2 =
          if nf.nid < ng.nid then (nf.nid, ng.nid) else (ng.nid, nf.nid)
        in
        match tcache_find st.andexu_c (id cube) i1 i2 with
        | r when r != absent -> r
        | _ ->
          let f0, f1 = split v f and g0, g1 = split v g in
          let r =
            match cube with
            | Node c when c.var = v ->
              let lo = andexu_st st c.hi f0 g0 in
              if is_one lo then One else bor_st st lo (andexu_st st c.hi f1 g1)
            | _ ->
              let v' = if v land 1 = 1 then v - 1 else v in
              mk st v' (andexu_st st cube f0 g0) (andexu_st st cube f1 g1)
          in
          tcache_store st.andexu_c (id cube) i1 i2 r;
          r
    end

let rel_product_unprime vars f g =
  let st = state () in
  andexu_st st (mk_cube st vars) f g

(* Functional composition f[v := g], as ite(g, f|v=1, f|v=0).  The two
   cofactors and the boolean connectives all run through the persistent
   per-domain caches, so repeated compositions against the same [g]
   share work. *)
let compose f v g =
  let st = state () in
  if v >= Array.length st.level then grow_vars st v;
  let lv = lvl st v in
  let f1 = cofactor_st st f v lv true and f0 = cofactor_st st f v lv false in
  bor_st st (band_st st g f1) (band_st st (bnot_st st g) f0)

let support t =
  let seen = Hashtbl.create 64 in
  let vars = Hashtbl.create 16 in
  let rec go = function
    | Zero | One -> ()
    | Node n ->
      if not (Hashtbl.mem seen n.nid) then begin
        Hashtbl.add seen n.nid ();
        Hashtbl.replace vars n.var ();
        go n.lo;
        go n.hi
      end
  in
  go t;
  List.sort Int.compare (Hashtbl.fold (fun v () acc -> v :: acc) vars [])

let rec eval t env =
  match t with
  | Zero -> false
  | One -> true
  | Node n -> if env n.var then eval n.hi env else eval n.lo env

(* --- model counting ---------------------------------------------------- *)

(* Counting is rank-based: the variables of the counting set are sorted
   by level and a node's contribution scales with the ranks skipped on
   the way to its children.  The (node, rank) cache is persistent across
   calls — the symbolic fixpoint counts a growing reached set every
   sweep, and only the new nodes cost anything — and is invalidated by a
   tag mismatch: a different counting set (cube id) or a reorder (order
   generation). *)
let sat_prepare st vars =
  let cube = mk_cube st vars in
  let tag = id cube in
  if st.sat_tag <> tag || st.sat_seen_gen <> st.sat_gen then begin
    icache_clear st.sat_c;
    let sorted = List.sort (fun a b -> Int.compare (lvl st a) (lvl st b)) vars in
    let maxv = List.fold_left max 0 vars in
    let rank = Array.make (maxv + 1) (-1) in
    List.iteri (fun i v -> rank.(v) <- i) sorted;
    st.sat_rank <- rank;
    st.sat_width <- List.length sorted;
    st.sat_tag <- tag;
    st.sat_seen_gen <- st.sat_gen
  end;
  st.sat_width

let rec sat_go st m t r =
  match t with
  | Zero -> 0
  | One -> 1 lsl (m - r)
  | Node nd -> (
    match icache_find st.sat_c nd.nid r 0 with
    | c when c <> min_int -> c
    | _ ->
      let rv =
        if nd.var < Array.length st.sat_rank then st.sat_rank.(nd.var) else -1
      in
      if rv < r then
        invalid_arg "Bdd.sat_count: support outside the counting variables";
      let c =
        (1 lsl (rv - r)) * (sat_go st m nd.lo (rv + 1) + sat_go st m nd.hi (rv + 1))
      in
      icache_store st.sat_c nd.nid r 0 c;
      c)

(* No width guard: the result is exact as long as the true count fits in
   an int, which the engines' state bounds already guarantee. *)
let sat_count_over vars t =
  let st = state () in
  let m = sat_prepare st (List.sort_uniq Int.compare vars) in
  sat_go st m t 0

let sat_count t n = sat_count_over (List.init n Fun.id) t

let any_sat t =
  let rec go t acc =
    match t with
    | Zero -> None
    | One -> Some (List.rev acc)
    | Node n ->
      if is_zero n.hi then go n.lo ((n.var, false) :: acc)
      else go n.hi ((n.var, true) :: acc)
  in
  go t []

let of_minterm n values =
  if Array.length values < n then invalid_arg "Bdd.of_minterm";
  let st = state () in
  if n > 0 then grow_vars st (n - 1);
  let order = Array.init n Fun.id in
  if not st.identity then
    Array.sort (fun a b -> Int.compare st.level.(a) st.level.(b)) order;
  let acc = ref One in
  for i = n - 1 downto 0 do
    let v = order.(i) in
    acc := if values.(v) then mk st v Zero !acc else mk st v !acc Zero
  done;
  !acc

let minterm assignment =
  let st = state () in
  List.iter (fun (v, _) -> if v >= Array.length st.level then grow_vars st v) assignment;
  let by_level_desc =
    List.sort (fun (a, _) (b, _) -> Int.compare (lvl st b) (lvl st a)) assignment
  in
  List.fold_left
    (fun acc (v, b) -> if b then mk st v Zero acc else mk st v acc Zero)
    One by_level_desc

let node_count t =
  let seen = Hashtbl.create 64 in
  let rec go = function
    | Zero | One -> ()
    | Node n ->
      if not (Hashtbl.mem seen n.nid) then begin
        Hashtbl.add seen n.nid ();
        go n.lo;
        go n.hi
      end
  in
  go t;
  Hashtbl.length seen

(* --- dynamic variable reordering --------------------------------------- *)

(* The swap primitive exchanges two adjacent levels by rewiring, in
   place, every node at the upper level that depends on the lower one:

     f = x ? (y ? f11 : f10) : (y ? f01 : f00)
       = y ? (x ? f11 : f01) : (x ? f10 : f00)

   The node object keeps its identity (and therefore its function), so
   every live BDD value and op-cache entry stays valid; only its var and
   children change.  The node is pulled out of the weak table before the
   mutation and re-added after — no collision is possible, because two
   live nodes rewired to the same (y, lo, hi) triple would denote the
   same function and would already have been hash-consed together, and a
   pre-existing y-node cannot reference the x-level children a rewired
   node has.  Reorders run only from the top-level entry points below
   (never inside an operation), so no recursion is in flight. *)

type reorder_ctx = {
  mutable vecs : node list array; (* registry of nodes per variable *)
  mutable rc : (int, int ref) Hashtbl.t option; (* in-snapshot refcounts, for size *)
  mutable counted_dead : (int, unit) Hashtbl.t; (* deaths already subtracted *)
  mutable est : int; (* estimated live node total *)
  mutable swaps : int;
  mutable created : int; (* fresh nodes since the last (re)snapshot *)
}

let rc_get tbl n =
  match Hashtbl.find_opt tbl n.nid with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add tbl n.nid r;
    r

let rc_incr st ctx = function
  | Zero | One -> ()
  | Node n -> (
    match ctx.rc with
    | None -> ()
    | Some tbl ->
      let r = rc_get tbl n in
      incr r;
      if Hashtbl.mem ctx.counted_dead n.nid then begin
        (* Revived by a rewire after being counted dead: undo the
           subtraction (children stay approximate — this is a sifting
           metric, not a collection decision). *)
        Hashtbl.remove ctx.counted_dead n.nid;
        ctx.est <- ctx.est + 1;
        st.var_count.(n.var) <- st.var_count.(n.var) + 1
      end)

let rec rc_decr st ctx = function
  | Zero | One -> ()
  | Node n -> (
    match ctx.rc with
    | None -> ()
    | Some tbl ->
      let r = rc_get tbl n in
      decr r;
      if !r <= 0 && not (Hashtbl.mem ctx.counted_dead n.nid) then begin
        (* Estimated death: external pins are invisible, so this is a
           sifting metric, not a collection decision. *)
        Hashtbl.add ctx.counted_dead n.nid ();
        ctx.est <- ctx.est - 1;
        st.var_count.(n.var) <- max 0 (st.var_count.(n.var) - 1);
        rc_decr st ctx n.lo;
        rc_decr st ctx n.hi
      end)

(* mk inside a swap: registers fresh nodes with the pass registry and the
   refcount estimate. *)
let mk_reorder st ctx var lo hi =
  let before = st.next_id in
  let r = mk st var lo hi in
  (match r with
  | Node n when st.next_id > before ->
    ctx.vecs.(var) <- n :: ctx.vecs.(var);
    ctx.est <- ctx.est + 1;
    ctx.created <- ctx.created + 1;
    rc_incr st ctx lo;
    rc_incr st ctx hi;
    (match ctx.rc with
    | Some tbl -> ignore (rc_get tbl n) (* starts at 0; parent refs follow *)
    | None -> ())
  | _ -> ());
  r

let swap_adjacent st ctx l =
  let x = st.var_at.(l) and y = st.var_at.(l + 1) in
  ctx.swaps <- ctx.swaps + 1;
  st.reorder_swaps <- st.reorder_swaps + 1;
  let xs = ctx.vecs.(x) in
  (* Reset the registry slot first: [mk_reorder] prepends fresh x-nodes
     to it during the loop, survivors are collected in [keep], and
     rewired nodes move to the y slot — one linear pass, no memq scan. *)
  ctx.vecs.(x) <- [];
  let keep = ref [] in
  List.iter
    (fun f ->
      if f.var = x then begin
        let f0 = f.lo and f1 = f.hi in
        let dep0 = match f0 with Node n -> n.var = y | _ -> false in
        let dep1 = match f1 with Node n -> n.var = y | _ -> false in
        if dep0 || dep1 then begin
          Weak_table.remove st.unique f;
          let f00, f01 =
            match f0 with Node n when n.var = y -> (n.lo, n.hi) | _ -> (f0, f0)
          in
          let f10, f11 =
            match f1 with Node n when n.var = y -> (n.lo, n.hi) | _ -> (f1, f1)
          in
          let lo' = mk_reorder st ctx x f00 f10 in
          let hi' = mk_reorder st ctx x f01 f11 in
          f.var <- y;
          f.lo <- lo';
          f.hi <- hi';
          ignore (Weak_table.merge st.unique f);
          rc_incr st ctx lo';
          rc_incr st ctx hi';
          rc_decr st ctx f0;
          rc_decr st ctx f1;
          st.var_count.(x) <- max 0 (st.var_count.(x) - 1);
          st.var_count.(y) <- st.var_count.(y) + 1;
          ctx.vecs.(y) <- f :: ctx.vecs.(y)
        end
        else keep := f :: !keep
      end)
    xs;
  ctx.vecs.(x) <- !keep @ ctx.vecs.(x);
  st.var_at.(l) <- y;
  st.var_at.(l + 1) <- x;
  st.level.(x) <- l + 1;
  st.level.(y) <- l;
  st.identity <- false

let snapshot_ctx st ~with_rc =
  let nv = Array.length st.level in
  let vecs = Array.make nv [] in
  Array.fill st.var_count 0 nv 0;
  let total = ref 0 in
  Weak_table.iter
    (fun n ->
      vecs.(n.var) <- n :: vecs.(n.var);
      st.var_count.(n.var) <- st.var_count.(n.var) + 1;
      incr total)
    st.unique;
  let rc =
    if with_rc then begin
      let tbl = Hashtbl.create (2 * !total + 16) in
      Array.iter
        (List.iter (fun n ->
             (match n.lo with Node c -> incr (rc_get tbl c) | _ -> ());
             match n.hi with Node c -> incr (rc_get tbl c) | _ -> ()))
        vecs;
      Some tbl
    end
    else None
  in
  { vecs; rc; counted_dead = Hashtbl.create 64; est = !total; swaps = 0; created = 0 }

(* Swap churn control.  Every swap rewires the full registry of its upper
   level — including nodes that died in earlier swaps but are pinned by
   the registry itself — and mints fresh children for each rewire.
   Without reclamation the registries grow with every pass over a level
   and the pass goes quadratic (then worse), allocating gigabytes on
   tables of a few thousand live nodes.  The cure is the one CUDD applies
   with true refcounts: collect mid-pass.  Dropping the registries and
   running [gc_st] lets the churn die (externally pinned nodes survive
   and have been rewired already, so they are exactly the live table);
   re-snapshotting rebuilds the registries from the survivors. *)
let resnapshot st ctx =
  let with_rc = ctx.rc <> None in
  ctx.vecs <- [||];
  ctx.rc <- None;
  ctx.counted_dead <- Hashtbl.create 0;
  ignore (gc_st st);
  let fresh = snapshot_ctx st ~with_rc in
  ctx.vecs <- fresh.vecs;
  ctx.rc <- fresh.rc;
  ctx.counted_dead <- fresh.counted_dead;
  ctx.est <- fresh.est;
  ctx.created <- 0

let churn_check st ctx =
  if ctx.created > max 16_384 (2 * ctx.est) then resnapshot st ctx

let check_identity st =
  let ok = ref true in
  Array.iteri (fun l v -> if l <> v then ok := false) st.var_at;
  st.identity <- !ok

type reorder_stats = {
  swaps : int;
  nodes_before : int;
  nodes_after : int;
  positions_moved : int;
}

(* One pass of Rudell sifting over variable groups (default: every
   variable alone).  Groups must occupy contiguous levels — the symbolic
   engine passes (present, primed) pairs so renames stay order-safe —
   and are sifted in order of decreasing node count: each group is moved
   through every position via adjacent swaps and parked where the
   estimated table size is smallest. *)
let reorder ?groups () =
  let st = state () in
  ignore (gc_st st);
  let nv = Array.length st.level in
  let ctx = snapshot_ctx st ~with_rc:true in
  let nodes_before = ctx.est in
  let groups =
    match groups with
    | Some gs -> List.map Array.of_list gs
    | None -> List.init nv (fun v -> [| v |])
  in
  (* Blocks in level order; every level must be covered exactly once. *)
  let covered = Array.make nv false in
  List.iter
    (fun g ->
      Array.iter
        (fun v ->
          if v < 0 || v >= nv then invalid_arg "Bdd.reorder: variable out of range";
          if covered.(v) then invalid_arg "Bdd.reorder: overlapping groups";
          covered.(v) <- true)
        g)
    groups;
  let rest =
    List.filter_map
      (fun v -> if covered.(v) then None else Some [| v |])
      (List.init nv Fun.id)
  in
  let blocks =
    List.map (fun g ->
        let g = Array.copy g in
        Array.sort (fun a b -> Int.compare st.level.(a) st.level.(b)) g;
        Array.iteri
          (fun i v ->
            if i > 0 && st.level.(v) <> st.level.(g.(i - 1)) + 1 then
              invalid_arg "Bdd.reorder: group not contiguous in the order")
          g;
        g)
      (groups @ rest)
    |> List.sort (fun a b -> Int.compare st.level.(a.(0)) st.level.(b.(0)))
    |> Array.of_list
  in
  let nb = Array.length blocks in
  let start_of = Array.make nb 0 in
  let recompute_starts () =
    let acc = ref 0 in
    Array.iteri
      (fun i b ->
        start_of.(i) <- !acc;
        acc := !acc + Array.length b)
      blocks
  in
  recompute_starts ();
  let block_nodes b =
    Array.fold_left (fun acc v -> acc + st.var_count.(v)) 0 b
  in
  (* Exchange adjacent blocks i and i+1. *)
  let swap_blocks i =
    let a = blocks.(i) and b = blocks.(i + 1) in
    let la = start_of.(i) in
    let m = Array.length a and k = Array.length b in
    for j = m - 1 downto 0 do
      for s = 0 to k - 1 do
        swap_adjacent st ctx (la + j + s)
      done
    done;
    blocks.(i) <- b;
    blocks.(i + 1) <- a;
    start_of.(i + 1) <- la + k
  in
  let moved = ref 0 in
  (* Sift order: by node population, heaviest first, ties by position. *)
  let order =
    List.sort
      (fun (na, pa, _) (nb, pb, _) ->
        if na <> nb then Int.compare nb na else Int.compare pa pb)
      (List.init nb (fun i -> (block_nodes blocks.(i), i, blocks.(i))))
  in
  List.iter
    (fun (n0, _, key) ->
      if n0 > 0 then begin
        (* Locate the block's current index by its variable set. *)
        let p0 = ref 0 in
        Array.iteri (fun i b -> if b == key then p0 := i) blocks;
        let best = ref ctx.est and best_pos = ref !p0 in
        let limit = (2 * ctx.est) + 4096 in
        (* Down to the bottom... *)
        let p = ref !p0 in
        (try
           while !p < nb - 1 do
             swap_blocks !p;
             incr p;
             churn_check st ctx;
             if ctx.est < !best then begin
               best := ctx.est;
               best_pos := !p
             end;
             if ctx.est > limit then raise Exit
           done
         with Exit -> ());
        (* ...then up to the top... *)
        (try
           while !p > 0 do
             swap_blocks (!p - 1);
             decr p;
             churn_check st ctx;
             if ctx.est < !best then begin
               best := ctx.est;
               best_pos := !p
             end;
             if ctx.est > limit then raise Exit
           done
         with Exit -> ());
        (* ...and settle at the best position seen. *)
        while !p < !best_pos do
          swap_blocks !p;
          incr p;
          churn_check st ctx
        done;
        while !p > !best_pos do
          swap_blocks (!p - 1);
          decr p;
          churn_check st ctx
        done;
        if !best_pos <> !p0 then incr moved
      end)
    order;
  st.reorders <- st.reorders + 1;
  st.sat_gen <- st.sat_gen + 1;
  check_identity st;
  {
    swaps = ctx.swaps;
    nodes_before;
    nodes_after = ctx.est;
    positions_moved = !moved;
  }

(* Sift back to the identity permutation (variable v at level v).  Cover
   extraction and any other structure-sensitive consumer can call this to
   re-establish the canonical order after a reorder; it is a no-op when
   the order is already the identity. *)
let restore_order () =
  let st = state () in
  if not st.identity then begin
    ignore (gc_st st);
    let ctx = snapshot_ctx st ~with_rc:false in
    let nv = Array.length st.level in
    for v = 0 to nv - 1 do
      for l = st.level.(v) - 1 downto v do
        swap_adjacent st ctx l
      done;
      churn_check st ctx
    done;
    st.sat_gen <- st.sat_gen + 1;
    check_identity st;
    assert st.identity
  end

let rec pp ppf = function
  | Zero -> Format.fprintf ppf "0"
  | One -> Format.fprintf ppf "1"
  | Node n -> Format.fprintf ppf "(x%d ? %a : %a)" n.var pp n.hi pp n.lo
