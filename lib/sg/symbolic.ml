(* Symbolic BDD-based reachability for STGs.

   One BDD variable per place and one per signal encodes a state
   (marking, code) as a minterm; transitions are compiled both into
   per-transition relational-product image operators (used by the
   analyses) and into clustered transition relations (used by the
   fixpoint), and the reachable set is computed by a frontier-based
   fixpoint.  The engine is exact: it enforces the same safety and
   consistency rules as the explicit [Sg.build] (raising the same
   exceptions), and every analysis it offers — state counting,
   deadlocks, transition liveness, CSC conflicts, output persistency —
   agrees with the explicit engine verdict for verdict.

   Variable space.  Order position k carries the present-state variable
   2k and the primed (next-state) variable 2k+1.  All state sets live
   exclusively over present variables; primed variables appear only
   inside clustered transition relations and are renamed away by
   [Bdd.unprime] right after each image.  Keeping each pair adjacent in
   the variable order is what makes the rename order-safe, so dynamic
   reordering is always run with (present, primed) pair groups.

   Variable order.  Places and signals are interleaved: each signal
   is positioned immediately after the lowest-indexed place its
   transitions touch.  On pipeline-shaped specifications (the token-ring
   family) this keeps each stage's places and handshake signals adjacent,
   so the reachable set stays near-linear in ring size where a
   places-then-signals order can blow up exponentially.

   Image computation.  For a single transition t with preset P, postset
   Q and label u+/u-, the fused operator is

     img_t(S) = rel_product (P ∪ Q ∪ {u})
                            (S ∧ enab_t)
                            ∧ update_t

   where enab_t is the conjunction of the preset variables and the
   required polarity of u, and update_t fixes the post-firing values
   (Q set, P∖Q cleared, u flipped).  Variables outside P ∪ Q ∪ {u} are
   untouched, which is exactly the frame condition of [Petri.fire] +
   [Sg.apply_label].  Transitions whose supports overlap are fused into
   clusters with a disjunctive relation over present and primed
   variables,

     T_C = ∨_{t ∈ C} enab_t ∧ update'_t ∧ (v' ↔ v for cluster vars
                                            t leaves untouched)
     img_C(S) = unprime (rel_product (present vars of C) S T_C)

   which fires every member of the cluster in one relational product —
   fewer, fatter image operations per sweep, bounded by the cluster
   width knob below.  Safety (a token produced into a marked place) and
   consistency (an edge firing against the signal's current value, or
   one marking reached with two codes) are checked sweep by sweep
   before the frontier is expanded, so failures surface as
   [Petri.Unsafe] and [Sg.Inconsistent] just as in the explicit BFS.

   Everything here runs on the calling domain: BDDs are domain-local
   (see [Bdd]), so a [t] value must not be shared across domains.  Ship
   only counts, bools and bitsets across joins. *)

module Bitset = Rtcad_util.Bitset
module Vec = Rtcad_util.Vec
module Stg = Rtcad_stg.Stg
module Petri = Rtcad_stg.Petri
module Bdd = Rtcad_logic.Bdd
module Obs = Rtcad_obs.Obs

(* --- tuning knobs ------------------------------------------------------ *)

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some v when v >= 0 -> v
    | _ -> default)
  | None -> default

(* Maximum number of distinct present-state variables a fused cluster
   may mention (0 disables clustering).  Wider clusters mean fewer image
   operations per sweep but a fatter relation each. *)
let cluster_width () = env_int "RTCAD_BDD_CLUSTER_WIDTH" 12

(* Unique-table populations above which the fixpoint loop runs a GC /
   a sifting pass between sweeps.  Both fire rarely on well-ordered
   specifications (the ring family peaks at a few thousand nodes); they
   are the pressure valve for orders gone bad.  The bar is deliberately
   high: the op caches pin their memoized intermediates, so the table
   fills with promoted junk at a rate set by the image workload, not by
   the live frontier — collecting it costs a full major cycle (~100ms)
   that buys nothing unless the live population is actually large. *)
let gc_threshold () = env_int "RTCAD_BDD_GC_THRESHOLD" 4_000_000
let reorder_threshold () = env_int "RTCAD_BDD_REORDER_THRESHOLD" 1_000_000

type trans_op = {
  tr : int;
  signal : int; (* -1 for dummies *)
  place_enab : Bdd.t; (* preset variables conjoined *)
  enab : Bdd.t; (* place_enab ∧ required signal polarity *)
  wrong : Bdd.t; (* place_enab ∧ opposite polarity; Zero for dummies *)
  wrong_msg : string;
  changed : int list; (* quantified by the image: preset ∪ postset ∪ signal *)
  update : Bdd.t; (* post-firing cube over [changed] *)
  update_primed : Bdd.t; (* the same cube over the primed partners *)
  fresh_places : int list; (* postset ∖ preset, in [Petri.post] order *)
}

(* A fixpoint image operator: either one transition's fused
   relational product, or a disjunctive relation covering several. *)
type cluster =
  | Single of trans_op
  | Fused of {
      members : trans_op list; (* in transition order *)
      support : int list; (* present vars, ascending *)
      rel : Bdd.t; (* over support ∪ primed support *)
    }

type t = {
  stg : Stg.t;
  nvars : int; (* order positions (places + signals) *)
  place_var : int array; (* present variable of each place *)
  signal_var : int array; (* present variable of each signal *)
  place_vars : int list; (* ascending *)
  signal_vars : int list; (* ascending *)
  all_vars : int list; (* place_vars ∪ signal_vars, ascending *)
  ops : trans_op array;
  reached : Bdd.t;
  num_states : int;
  levels : int;
  image_ops : int;
  peak_nodes : int;
}

(* --- variable order --------------------------------------------------- *)

let variable_order stg =
  let net = Stg.net stg in
  let np = Petri.num_places net and ns = Stg.num_signals stg in
  let nt = Petri.num_transitions net in
  (* Anchor of a signal: the lowest place index any of its transitions
     consumes or produces. *)
  let anchor = Array.make ns np in
  for t = 0 to nt - 1 do
    match Stg.label stg t with
    | Stg.Dummy -> ()
    | Stg.Edge { signal; _ } ->
      List.iter
        (fun p -> if p < anchor.(signal) then anchor.(signal) <- p)
        (Petri.pre net t @ Petri.post net t)
  done;
  let items =
    Array.init (np + ns) (fun i ->
        if i < np then (i, 0, i) (* place i, sorted by own index *)
        else
          let u = i - np in
          (anchor.(u), 1, u) (* signal u, right after its anchor place *))
  in
  Array.sort compare items;
  let place_var = Array.make np 0 and signal_var = Array.make ns 0 in
  (* Order position k owns present variable 2k (primed partner 2k+1). *)
  Array.iteri
    (fun pos (_, kind, idx) ->
      if kind = 0 then place_var.(idx) <- 2 * pos else signal_var.(idx) <- 2 * pos)
    items;
  (place_var, signal_var)

(* --- transition compilation ------------------------------------------- *)

let cube_of_list vars =
  List.fold_left (fun acc v -> Bdd.band acc (Bdd.var v)) Bdd.one vars

let compile_op stg ~place_var ~signal_var t =
  let net = Stg.net stg in
  let pre = Petri.pre net t and post = Petri.post net t in
  let place_enab = cube_of_list (List.map (fun p -> place_var.(p)) pre) in
  let enab, wrong, wrong_msg, sig_lit, signal =
    match Stg.label stg t with
    | Stg.Dummy -> (place_enab, Bdd.zero, "", None, -1)
    | Stg.Edge { signal; dir } ->
      let sv = signal_var.(signal) in
      let need, opp, how, upd =
        match dir with
        | Stg.Rise -> (Bdd.nvar sv, Bdd.var sv, " already high", true)
        | Stg.Fall -> (Bdd.var sv, Bdd.nvar sv, " already low", false)
      in
      ( Bdd.band place_enab need,
        Bdd.band place_enab opp,
        Sg.inconsistent_msg stg signal dir how,
        Some (sv, upd),
        signal )
  in
  (* The post-firing cube, over present variables and (for the
     disjunctive cluster relations) over their primed partners. *)
  let update_cube shift =
    let lit v b = if b then Bdd.var (v + shift) else Bdd.nvar (v + shift) in
    let base =
      match sig_lit with Some (sv, b) -> lit sv b | None -> Bdd.one
    in
    let base =
      List.fold_left
        (fun acc p -> Bdd.band acc (lit place_var.(p) true))
        base post
    in
    List.fold_left
      (fun acc p ->
        if List.mem p post then acc else Bdd.band acc (lit place_var.(p) false))
      base pre
  in
  let changed =
    List.sort_uniq Int.compare
      ((match sig_lit with Some (sv, _) -> [ sv ] | None -> [])
      @ List.map (fun p -> place_var.(p)) (pre @ post))
  in
  let fresh_places = List.filter (fun p -> not (List.mem p pre)) post in
  {
    tr = t;
    signal;
    place_enab;
    enab;
    wrong;
    wrong_msg;
    changed;
    update = update_cube 0;
    update_primed = update_cube 1;
    fresh_places;
  }

(* --- clustering -------------------------------------------------------- *)

let list_inter a b = List.exists (fun x -> List.mem x b) a

(* Greedy grouping in transition order: a transition joins the current
   cluster when its changed set overlaps the cluster support and the
   union stays within the width bound.  Clusters of one keep the cheaper
   conjunctive image path. *)
let build_clusters ops width =
  if width = 0 then Array.to_list ops |> List.map (fun op -> Single op)
  else begin
    let groups = ref [] and cur = ref [] and cur_support = ref [] in
    let flush () =
      if !cur <> [] then begin
        groups := (List.rev !cur, !cur_support) :: !groups;
        cur := [];
        cur_support := []
      end
    in
    Array.iter
      (fun op ->
        let union = List.sort_uniq Int.compare (op.changed @ !cur_support) in
        if
          !cur = []
          || (list_inter op.changed !cur_support && List.length union <= width)
        then begin
          cur := op :: !cur;
          cur_support := union
        end
        else begin
          flush ();
          cur := [ op ];
          cur_support := op.changed
        end)
      ops;
    flush ();
    List.rev_map
      (fun (members, support) ->
        match members with
        | [ op ] -> Single op
        | _ ->
          let rel =
            List.fold_left
              (fun acc op ->
                (* Frame: cluster variables this member leaves alone keep
                   their value across the step. *)
                let frame =
                  List.fold_left
                    (fun acc v ->
                      if List.mem v op.changed then acc
                      else
                        Bdd.band acc
                          (Bdd.bnot (Bdd.bxor (Bdd.var v) (Bdd.var (v + 1)))))
                    Bdd.one support
                in
                Bdd.bor acc
                  (Bdd.band op.enab (Bdd.band op.update_primed frame)))
              Bdd.zero members
          in
          Fused { members; support; rel })
      (List.rev !groups)
    |> List.rev
  end

let cluster_image cl set =
  match cl with
  | Single op -> Bdd.band (Bdd.rel_product op.changed set op.enab) op.update
  | Fused { support; rel; _ } -> Bdd.rel_product_unprime support set rel

(* --- reachability fixpoint -------------------------------------------- *)

let state_minterm ~place_var ~signal_var marking code =
  let acc = ref [] in
  Array.iteri (fun p v -> acc := (v, Bitset.mem marking p) :: !acc) place_var;
  Array.iteri (fun u v -> acc := (v, Bitset.mem code u) :: !acc) signal_var;
  Bdd.minterm !acc

(* Reachable states are in bijection with their BDD minterms (one code
   per marking), so counting assignments over the present variables
   counts states.  The persistent count cache keyed on this one variable
   set makes the per-sweep counts incremental — only nodes new since the
   last sweep are visited. *)
let count_states ~all_vars set = Bdd.sat_count_over all_vars set

(* [set] must be independent of all signal variables; each marking then
   accounts for exactly [2^num_signals] assignments over the same
   present-variable set (sharing the count cache with [count_states]). *)
let count_markings ~all_vars ~num_signals set =
  if num_signals >= Sys.int_size - 2 then invalid_arg "Symbolic: too many signals";
  Bdd.sat_count_over all_vars set / (1 lsl num_signals)

(* Pair groups for sifting: each (present, primed) pair moves as one
   block, preserving the adjacency [Bdd.unprime] relies on. *)
let reorder_groups nvars = List.init nvars (fun k -> [ 2 * k; (2 * k) + 1 ])

(* --- delta seeding ----------------------------------------------------- *)

(* Semantic identity of a transition: label edge (by signal index), preset
   and postset as sorted place-index lists.  Indices are meaningful across
   two STGs only when their place/signal spaces coincide, which
   [seed_compatible] establishes first. *)
let transition_descr stg t =
  let net = Stg.net stg in
  ( (match Stg.label stg t with
    | Stg.Dummy -> None
    | Stg.Edge { signal; dir } -> Some (signal, dir)),
    List.sort Int.compare (Petri.pre net t),
    List.sort Int.compare (Petri.post net t) )

(* A previous analysis may seed the fixpoint for an edited STG only when
   every state it reached is necessarily still reachable: the state
   encoding must be identical (same place/signal index spaces *and* the
   same variable-order assignment, so the seed BDD means the same set of
   states), the initial (marking, code) must be unchanged, and every old
   transition must still exist — a pure transition addition guarantees
   R_old ⊆ R_new.  A removed or rewired transition, a place change or a
   different initial state can all strand previously reachable states, so
   those edits invalidate the seed and the caller falls back to a
   from-scratch run.  Exactness is unaffected either way: the seeded
   start set is re-checked by [check_frontier] before the fixpoint can
   complete. *)
let seed_compatible old stg =
  let net = Stg.net stg in
  let old_net = Stg.net old.stg in
  let nt = Petri.num_transitions net in
  let old_nt = Petri.num_transitions old_net in
  Petri.num_places net = Petri.num_places old_net
  && Stg.num_signals stg = Stg.num_signals old.stg
  && old_nt <= nt
  && Bitset.equal (Petri.initial_marking net) (Petri.initial_marking old_net)
  && Bitset.equal (Sg.initial_code stg) (Sg.initial_code old.stg)
  && (let place_var, signal_var = variable_order stg in
      place_var = old.place_var && signal_var = old.signal_var)
  && (* old transitions ⊆ new transitions, as a multiset of descriptors *)
  (let remaining = ref (List.init nt (transition_descr stg)) in
   try
     for t = 0 to old_nt - 1 do
       let d = transition_descr old.stg t in
       let rec remove = function
         | [] -> raise Exit
         | x :: rest -> if x = d then rest else x :: remove rest
       in
       remaining := remove !remaining
     done;
     true
   with Exit -> false)

(* The image operator's unprime discipline: every (present, primed) pair
   on adjacent levels, even above odd.  Analyses maintain it themselves
   (their reorder valve sifts pair groups), but a client-forced groupless
   [Bdd.reorder] — or a pair-grouped one from an analysis over fewer
   variables, which sees the higher pairs only as singletons — can break
   it for the pairs used here.  With the analysis pool keeping BDDs live
   across such calls, this is no longer hypothetical, so [analyze] checks
   and sifts back to the identity before compiling any relation. *)
let ensure_pair_order nvars =
  let ok = ref true in
  for k = 0 to nvars - 1 do
    if Bdd.level_of ((2 * k) + 1) <> Bdd.level_of (2 * k) + 1 then ok := false
  done;
  if not !ok then begin
    Obs.incr "sg.symbolic.order_restored";
    Bdd.restore_order ()
  end

let analyze ?max_states ?seed stg =
  Obs.span "sg.symbolic" @@ fun () ->
  let net = Stg.net stg in
  let ns = Stg.num_signals stg in
  let np = Petri.num_places net in
  let nvars = np + ns in
  ensure_pair_order nvars;
  let place_var, signal_var = variable_order stg in
  let ops =
    Array.init (Petri.num_transitions net) (compile_op stg ~place_var ~signal_var)
  in
  let clusters = build_clusters ops (cluster_width ()) in
  let n_clusters = List.length clusters in
  let place_vars = List.sort Int.compare (Array.to_list place_var) in
  let signal_vars = List.sort Int.compare (Array.to_list signal_var) in
  let all_vars = List.sort Int.compare (place_vars @ signal_vars) in
  let init =
    state_minterm ~place_var ~signal_var (Petri.initial_marking net)
      (Sg.initial_code stg)
  in
  (* A valid seed starts the fixpoint from the prior reachable set (plus
     the initial state, which it already contains when compatible): the
     whole seeded set enters the first frontier, so it is safety- and
     consistency-checked against the *new* transitions before any result
     is reported, and the sweeps then only have to discover the states
     the edit actually added. *)
  let start =
    match seed with
    | None -> init
    | Some old ->
      if seed_compatible old stg then begin
        Obs.incr "sg.symbolic.seeded";
        Bdd.bor old.reached init
      end
      else begin
        Obs.incr "sg.symbolic.seed_fallback";
        init
      end
  in
  let reached = ref start and frontier = ref start in
  let levels = ref 0 and image_ops = ref 0 in
  let peak = ref (Bdd.node_count start) in
  let num_markings = ref 1 in
  (* The explicit BFS fires every enabled transition of every state, so a
     safety or consistency offence anywhere in the reachable space is an
     offence here too: check each frontier before expanding it.  [fire]
     raises before [check_label] runs, hence the unsafe check first.
     The common (offence-free) sweep pays a single [intersects] against
     the precomputed offender set; only a hit replays the detailed
     per-transition scan to raise the exact exception the explicit
     engine would. *)
  let bad =
    Array.fold_left
      (fun acc op ->
        let unsafe =
          List.fold_left
            (fun acc p -> Bdd.bor acc (Bdd.var place_var.(p)))
            Bdd.zero op.fresh_places
        in
        Bdd.bor acc
          (Bdd.bor (Bdd.band op.place_enab unsafe) op.wrong))
      Bdd.zero ops
  in
  let check_frontier_detailed f =
    Array.iter
      (fun op ->
        let en = Bdd.band f op.place_enab in
        if not (Bdd.is_zero en) then begin
          List.iter
            (fun p ->
              if Bdd.intersects en (Bdd.var place_var.(p)) then
                raise (Petri.Unsafe p))
            op.fresh_places;
          if Bdd.intersects en op.wrong then
            raise (Sg.Inconsistent op.wrong_msg)
        end)
      ops
  in
  let check_frontier f = if Bdd.intersects f bad then check_frontier_detailed f in
  let gc_at = gc_threshold () and reorder_at = ref (reorder_threshold ()) in
  let maintain_tables () =
    (* [live_estimate] is an O(1) overcount of the table population
       (the exact [table_stats] count walks every weak bucket — per
       sweep that scan dwarfed the images).  Only when the cheap bound
       crosses a threshold is the exact figure computed, which also
       re-tightens the bound; pressure valves then act on real
       population, not on churn of already-dead intermediates. *)
    if Bdd.live_estimate () > min !reorder_at gc_at then begin
      let pop = Bdd.live_recount () in
      if pop > !reorder_at then begin
        (* The population may be garbage accreted by earlier analyses
           (op caches pin their intermediates): collect first, and sift
           only when the *live* table is what crossed the threshold —
           sifting decisions made on a junk-dominated table wreck the
           order for the functions that are actually alive. *)
        let g = Bdd.gc () in
        if g.Bdd.gc_after > !reorder_at then begin
          let r = Bdd.reorder ~groups:(reorder_groups nvars) () in
          (* Back off: re-sift only after the table doubles again. *)
          reorder_at := max (reorder_threshold ()) (2 * r.Bdd.nodes_after)
        end
      end
      else if pop > gc_at then ignore (Bdd.gc ())
    end
  in
  (* Chained (Gauss-Seidel) sweeps: within one sweep, states discovered
     by earlier clusters feed the images of later ones, so a token can
     ripple down a whole pipeline in a single pass — on ring-shaped
     specifications this collapses the BFS depth (~4N levels) to a
     near-constant number of sweeps.  Exactness is unaffected: every
     state enters [frontier] exactly once and is checked by
     [check_frontier] before any result is reported (a state expanded
     mid-sweep before its check still raises at the head of the next
     sweep, before the fixpoint can complete).

     Each cluster images only its delta: [imaged.(i)] is the reached set
     as of cluster [i]'s last application, so the next application
     covers [reached ∖ imaged.(i)] — exactly the states that arrived
     since.  Images distribute over union, so the union of delta images
     equals the image of the whole reached set; the payoff is that
     [rel_product], [unprime] and the fresh-set [bdiff] all traverse
     delta-sized arguments instead of the full (and still growing)
     reached set. *)
  let cluster_arr = Array.of_list clusters in
  let imaged = Array.make (Array.length cluster_arr) Bdd.zero in
  while not (Bdd.is_zero !frontier) do
    incr levels;
    check_frontier !frontier;
    let fresh_sweep = ref Bdd.zero in
    Array.iteri
      (fun i cl ->
        (* Saturate the cluster: a fused relation fires each member only
           once per application, so repeating it until it yields nothing
           lets a token ripple through the whole cluster window before
           moving on — the same chaining the per-transition loop gets
           for free from its finer granularity. *)
        let continue_ = ref true in
        while !continue_ do
          let todo = Bdd.bdiff !reached imaged.(i) in
          if Bdd.is_zero todo then continue_ := false
          else begin
            incr image_ops;
            imaged.(i) <- !reached;
            let img = cluster_image cl todo in
            let fresh = Bdd.bdiff img !reached in
            if Bdd.is_zero fresh then continue_ := false
            else begin
              reached := Bdd.bor !reached fresh;
              fresh_sweep := Bdd.bor !fresh_sweep fresh;
              match cl with Single _ -> continue_ := false | Fused _ -> ()
            end
          end
        done)
      cluster_arr;
    frontier := !fresh_sweep;
    let nodes = Bdd.node_count !reached in
    if nodes > !peak then peak := nodes;
    let states = count_states ~all_vars !reached in
    let markings =
      count_markings ~all_vars ~num_signals:ns (Bdd.exists signal_vars !reached)
    in
    (* Two states sharing a marking must share a code: any surplus means
       the explicit build would have merged the marking and failed. *)
    if states > markings then
      raise (Sg.Inconsistent "same marking reached with two different codes");
    (match max_states with
    | Some bound when markings > bound -> raise (Sg.Too_large bound)
    | _ -> ());
    num_markings := markings;
    maintain_tables ()
  done;
  if Obs.enabled () then begin
    Obs.incr ~by:!levels "sg.symbolic.levels";
    Obs.incr ~by:!image_ops "sg.symbolic.image_ops";
    Obs.set_gauge "sg.symbolic.states" (float_of_int !num_markings);
    Obs.set_gauge "sg.symbolic.clusters" (float_of_int n_clusters);
    Obs.set_gauge "sg.symbolic.reached_nodes"
      (float_of_int (Bdd.node_count !reached));
    Obs.set_gauge "sg.symbolic.peak_nodes" (float_of_int !peak)
  end;
  {
    stg;
    nvars;
    place_var;
    signal_var;
    place_vars;
    signal_vars;
    all_vars;
    ops;
    reached = !reached;
    num_states = !num_markings;
    levels = !levels;
    image_ops = !image_ops;
    peak_nodes = !peak;
  }

(* Counting the unique table walks every weak bucket, so the table's
   gauges are published by the top-level operations (a symbolic flow, a
   check), not by each analysis: a CSC search runs one per candidate. *)
let publish_table_gauges () =
  if Obs.enabled () then begin
    let ts = Bdd.table_stats () in
    Obs.set_gauge "bdd.unique_nodes" (float_of_int ts.Bdd.unique_nodes);
    Obs.set_gauge "bdd.op_cache_entries" (float_of_int ts.Bdd.op_cache_entries);
    Obs.set_gauge "bdd.op_cache_capacity"
      (float_of_int ts.Bdd.op_cache_capacity);
    Obs.set_gauge "bdd.op_cache_hit_rate"
      (if ts.Bdd.op_cache_lookups = 0 then 0.
       else
         float_of_int ts.Bdd.op_cache_hits
         /. float_of_int ts.Bdd.op_cache_lookups);
    Obs.set_gauge "bdd.reorders" (float_of_int ts.Bdd.reorders);
    Obs.set_gauge "bdd.reorder_swaps" (float_of_int ts.Bdd.reorder_swaps);
    Obs.set_gauge "bdd.gc_runs" (float_of_int ts.Bdd.gc_runs);
    Obs.set_gauge "bdd.gc_reclaimed" (float_of_int ts.Bdd.gc_reclaimed)
  end

let stg sym = sym.stg
let num_states sym = sym.num_states

(* --- analysis reuse pool ----------------------------------------------- *)

(* A small domain-local pool of recent analyses.  BDDs are domain-local,
   so the pool must be too (each worker domain warms its own); entries
   survive [Bdd.clear_caches] because the unique table is weak — pinning
   at most [capacity] reachable sets bounds what the pool keeps alive.
   Two reuse levels: an STG with the same canonical [.g] text as a pooled
   analysis gets that analysis back verbatim (the text is the same
   content identity the serve cache keys on), and an STG that is a pure
   transition addition over a pooled one gets its fixpoint seeded from
   the pooled reachable set. *)
module Seeds = struct
  type entry = { canon : string; sym : t }

  let capacity = 4
  let pool_key = Domain.DLS.new_key (fun () -> ref ([] : entry list))
  let pool () = Domain.DLS.get pool_key
  let clear () = pool () := []
  let size () = List.length !(pool ())

  (* The [.g] printer refuses nets whose marking it cannot express (a
     marked implicit place that lost its producer or consumer to an
     edit); such STGs have no canonical text and skip the exact tier. *)
  let canon_of stg =
    match Rtcad_stg.Stg_io.to_string stg with
    | s -> Some s
    | exception Failure _ -> None

  let remember sym =
    match canon_of sym.stg with
    | None -> ()
    | Some canon ->
      let p = pool () in
      let rest = List.filter (fun e -> e.canon <> canon) !p in
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | e :: tl -> e :: take (n - 1) tl
      in
      p := { canon; sym } :: take (capacity - 1) rest

  (* Equal canonical text means identical structure (indices, names,
     kinds, initial state), so the pooled analysis is the analysis of
     [stg] — only the [stg] field is swapped so callers see the value
     they passed in. *)
  let find_exact stg =
    match canon_of stg with
    | None -> None
    | Some canon ->
      List.find_map
        (fun e -> if e.canon = canon then Some { e.sym with stg } else None)
        !(pool ())

  let find_seed stg =
    List.find_map
      (fun e -> if seed_compatible e.sym stg then Some e.sym else None)
      !(pool ())
end

(* [analyze] through the reuse pool: exact canonical match returns the
   pooled analysis (re-checking a caller-supplied bound, so [Too_large]
   still surfaces), otherwise the fixpoint runs — seeded when a pooled
   analysis covers a subset of the new STG — and the result joins the
   pool.  Failures ([Unsafe], [Inconsistent], [Too_large]) are never
   pooled.  Candidate probes inside the CSC search deliberately bypass
   this (thousands of throwaway STGs would churn the pool for nothing);
   the flow's per-stage analyses are the intended callers. *)
let analyze_cached ?max_states stg =
  match Seeds.find_exact stg with
  | Some sym ->
    (match max_states with
    | Some bound when sym.num_states > bound -> raise (Sg.Too_large bound)
    | _ ->
      Obs.incr "sg.symbolic.reused";
      sym)
  | None ->
    let seed = Seeds.find_seed stg in
    let sym = analyze ?max_states ?seed stg in
    Seeds.remember sym;
    sym
let equal_reachable a b = Bdd.equal a.reached b.reached

(* --- per-signal excitation, deadlocks, CSC ---------------------------- *)

(* In a reachable state of a successfully analysed STG, every
   place-enabled transition also produced an explicit edge (its label
   check passed — [check_frontier] proved there are no offenders), so
   "some transition of u is place-enabled" coincides with the explicit
   engine's [Sg.excited]. *)
let excited_set sym u =
  Array.fold_left
    (fun acc op -> if op.signal = u then Bdd.bor acc op.place_enab else acc)
    Bdd.zero sym.ops

let any_enabled sym =
  Array.fold_left (fun acc op -> Bdd.bor acc op.place_enab) Bdd.zero sym.ops

let deadlock_set sym = Bdd.bdiff sym.reached (any_enabled sym)
let deadlock_count sym = count_states ~all_vars:sym.all_vars (deadlock_set sym)

(* kind.(v) = place index, or num_places + signal index, for present
   variables; -1 elsewhere. *)
let var_kinds sym =
  let np = Petri.num_places (Stg.net sym.stg) in
  let kind = Array.make (2 * sym.nvars) (-1) in
  Array.iteri (fun p v -> kind.(v) <- p) sym.place_var;
  Array.iteri (fun u v -> kind.(v) <- np + u) sym.signal_var;
  kind

(* Enumerate the full assignments of [set], expanding variables absent
   from a path both ways (a skipped variable satisfies the path with
   either value).  Iteration is by ascending present variable —
   cofactoring is order-independent, so the output is deterministic even
   after a reorder.  Returns (marking, code) pairs in lexicographic
   variable-assignment order. *)
let enum_states sym set =
  let np = Petri.num_places (Stg.net sym.stg) in
  let ns = Stg.num_signals sym.stg in
  let kind = var_kinds sym in
  let acc = ref [] in
  let rec go bdd pos m c =
    if Bdd.is_zero bdd then ()
    else if pos >= sym.nvars then acc := (m, c) :: !acc
    else begin
      let v = 2 * pos in
      let lo = Bdd.cofactor bdd v false and hi = Bdd.cofactor bdd v true in
      go lo (pos + 1) m c;
      let k = kind.(v) in
      let m', c' =
        if k < np then (Bitset.add m k, c) else (m, Bitset.add c (k - np))
      in
      go hi (pos + 1) m' c'
    end
  in
  go set 0 (Bitset.create np) (Bitset.create ns);
  List.rev !acc

let deadlock_states sym = enum_states sym (deadlock_set sym)
let deadlock_markings sym = List.map fst (deadlock_states sym)

let live_transitions sym =
  Array.for_all
    (fun op -> Bdd.intersects sym.reached op.place_enab)
    sym.ops

(* CSC: signal u is in conflict iff some code is shared by a reachable
   state where u is excited and one where it is not — quantifying the
   places out of both sides leaves two sets of codes whose intersection
   is exactly the conflicting codes.  This matches the explicit
   [Encoding.csc_conflicts] pair scan without ever forming pairs. *)
let csc_conflicting sym u =
  let ex = excited_set sym u in
  (* Fused and-exists both sides: the conjunctions [reached ∧ ex] and
     [reached ∧ ¬ex] are never materialized, only their place-free
     projections. *)
  let a = Bdd.rel_product sym.place_vars sym.reached ex in
  let b = Bdd.rel_product sym.place_vars sym.reached (Bdd.bnot ex) in
  Bdd.intersects a b

let csc_conflict_signals sym =
  List.filter (csc_conflicting sym) (Stg.non_input_signals sym.stg)

let has_csc sym = List.exists (csc_conflicting sym) (Stg.non_input_signals sym.stg)

(* --- output persistency ----------------------------------------------- *)

(* Mirror of [Props.persistency_violations]: firing [by] from a state
   where a non-input transition [t] (of a different signal) is also
   enabled must leave some transition of [t]'s signal enabled.  Only
   [by] that consume a token [t] needs — pre(t) ∩ (pre(by) ∖ post(by))
   non-empty — can disable [t], so all other pairs are skipped without
   an image computation (on marked-graph-like specs this prunes every
   pair). *)
let is_output_persistent sym =
  let stg = sym.stg in
  let net = Stg.net stg in
  let signal_of t =
    match Stg.label stg t with
    | Stg.Edge { signal; _ } -> Some signal
    | Stg.Dummy -> None
  in
  let is_input t =
    match signal_of t with Some u -> Stg.is_input stg u | None -> false
  in
  let same_signal_enab t =
    let s = signal_of t in
    Array.fold_left
      (fun acc op ->
        if signal_of op.tr = s then Bdd.bor acc op.place_enab else acc)
      Bdd.zero sym.ops
  in
  let image op set =
    Bdd.band (Bdd.rel_product op.changed set op.enab) op.update
  in
  let can_disable ~t ~by =
    let taken =
      List.filter (fun p -> not (List.mem p (Petri.post net by))) (Petri.pre net by)
    in
    List.exists (fun p -> List.mem p taken) (Petri.pre net t)
  in
  Array.for_all
    (fun opt ->
      is_input opt.tr
      || Array.for_all
           (fun opby ->
             opt.tr = opby.tr
             || signal_of opt.tr = signal_of opby.tr
             || (not (can_disable ~t:opt.tr ~by:opby.tr))
             ||
             let both = Bdd.band sym.reached (Bdd.band opt.place_enab opby.enab) in
             Bdd.is_zero both
             || not
                  (Bdd.intersects (image opby both)
                     (Bdd.bnot (same_signal_enab opt.tr))))
           sym.ops)
    sym.ops

(* --- materialization --------------------------------------------------- *)

(* Replay the serial explicit BFS ([Sg.build_serial]'s exact discovery
   and numbering), asserting every state against the symbolic reachable
   set as it is found.  The result is bit-identical to [Sg.build] — same
   ids, same packed arrays — and the membership check makes every
   materialization a differential test of the two engines. *)
let materialize ?(max_states = 200_000) sym =
  Obs.span "sg.symbolic.materialize" @@ fun () ->
  let stg = sym.stg in
  let net = Stg.net stg in
  let np = Petri.num_places net in
  let kind = var_kinds sym in
  let member marking code =
    Bdd.eval sym.reached (fun v ->
        let k = kind.(v) in
        if k < np then Bitset.mem marking k else Bitset.mem code (k - np))
  in
  let tbl = Hashtbl.create 256 in
  let empty = Bitset.create 0 in
  let markings = Vec.create ~capacity:32 ~dummy:empty () in
  let codes = Vec.create ~capacity:32 ~dummy:empty () in
  let add marking code =
    let id = Vec.length markings in
    Vec.push markings marking;
    Vec.push codes code;
    Hashtbl.add tbl marking id;
    id
  in
  let m0 = Petri.initial_marking net in
  let c0 = Sg.initial_code stg in
  if not (member m0 c0) then
    failwith "Symbolic.materialize: initial state missing from reachable set";
  ignore (add m0 c0);
  let edges = Vec.create ~capacity:64 ~dummy:0 () in
  let cursor = ref 0 in
  while !cursor < Vec.length markings do
    let s = !cursor in
    incr cursor;
    let m = Vec.get markings s and c = Vec.get codes s in
    Petri.iter_enabled net m (fun t ->
        let m' = Petri.fire net m t in
        Sg.check_label stg c t;
        let s' =
          match Hashtbl.find_opt tbl m' with
          | Some s' ->
            if not (Sg.code_matches stg c t (Vec.get codes s')) then
              raise (Sg.Inconsistent "same marking reached with two different codes");
            s'
          | None ->
            if Vec.length markings >= max_states then
              raise (Sg.Too_large max_states);
            let c' = Sg.apply_label stg c t in
            if not (member m' c') then
              failwith
                "Symbolic.materialize: explicit successor missing from reachable set";
            add m' c'
        in
        Vec.push edges s;
        Vec.push edges t;
        Vec.push edges s')
  done;
  if Vec.length markings <> sym.num_states then
    failwith "Symbolic.materialize: explicit and symbolic state counts differ";
  Sg.of_exploration ~stg ~markings:(Vec.to_array markings)
    ~codes:(Vec.to_array codes) ~edges

let pp_stats ppf sym =
  Format.fprintf ppf
    "symbolic: %d state(s) in %d level(s), %d image op(s), peak %d BDD node(s)"
    sym.num_states sym.levels sym.image_ops sym.peak_nodes

(* --- synthesis-facing API ---------------------------------------------- *)

let initial_set sym =
  state_minterm ~place_var:sym.place_var ~signal_var:sym.signal_var
    (Petri.initial_marking (Stg.net sym.stg))
    (Sg.initial_code sym.stg)

let enabled_set sym t = sym.ops.(t).enab
let count_set sym f = Bdd.sat_count_over sym.all_vars f

(* Ordered pairs of distinct transitions enabled together in some
   reachable state — the same set the explicit engine collects by
   scanning the graph, in the same sorted order.  (In a
   consistent reachable space place-enabled implies the label check
   passes, so [enab] is the explicit notion of enabled.) *)
let concurrent_pairs sym =
  let n = Array.length sym.ops in
  let renab = Array.map (fun op -> Bdd.band sym.reached op.enab) sym.ops in
  let acc = ref [] in
  for t1 = n - 1 downto 0 do
    for t2 = n - 1 downto 0 do
      if t1 <> t2 && Bdd.intersects renab.(t1) sym.ops.(t2).enab then
        acc := (t1, t2) :: !acc
    done
  done;
  !acc

(* A view is the symbolic mirror of a pruned explicit graph:
   the analysis with some edges suppressed per transition, and the
   states reachable through the edges that remain.  On [vreached],
   [eff.(t)] is the kept-edge enabling set — [enab] minus the states
   where an assumption suppresses [t]; nothing reads it elsewhere. *)
type view = {
  base : t;
  vreached : Bdd.t; (* states reachable through kept edges *)
  eff : Bdd.t array; (* kept-edge enabling, per transition *)
}

(* Every edge is kept.  On reachable states place-enabled is enabled
   (see [excited_set]) and every use of [eff] is confined to
   [vreached], so the bare preset cubes serve: the verdicts then build
   the sets [deadlock_set] and [excited_set] build, not larger ones
   carrying the polarity literals. *)
let unrestricted sym =
  {
    base = sym;
    vreached = sym.reached;
    eff = Array.map (fun op -> op.place_enab) sym.ops;
  }

(* Recompute reachability with each transition [t] firing only from
   [allowed t] (clipped to its enabling set).  The restricted space is a
   subset of the verified [sym.reached], so no safety or consistency
   checks are needed; chained per-transition images converge in a few
   sweeps on the small pruned spaces this is used for. *)
let restrict sym ~allowed =
  let eff =
    Array.init (Array.length sym.ops) (fun t ->
        Bdd.band sym.ops.(t).enab (allowed t))
  in
  let init = initial_set sym in
  let vreached = ref init and frontier = ref init in
  while not (Bdd.is_zero !frontier) do
    let expand = ref !frontier and fresh_sweep = ref Bdd.zero in
    Array.iteri
      (fun t op ->
        let img =
          Bdd.band (Bdd.rel_product op.changed !expand eff.(t)) op.update
        in
        let fresh = Bdd.bdiff img !vreached in
        if not (Bdd.is_zero fresh) then begin
          vreached := Bdd.bor !vreached fresh;
          expand := Bdd.bor !expand fresh;
          fresh_sweep := Bdd.bor !fresh_sweep fresh
        end)
      sym.ops;
    frontier := !fresh_sweep
  done;
  assert (Bdd.subset !vreached sym.reached);
  { base = sym; vreached = !vreached; eff }

let view_base vw = vw.base
let view_reached vw = vw.vreached
let view_states vw = count_set vw.base vw.vreached

let view_deadlock_free vw =
  let any = Array.fold_left Bdd.bor Bdd.zero vw.eff in
  Bdd.is_zero (Bdd.bdiff vw.vreached any)

(* Excitation in the viewed graph: some kept edge of [u] leaves the
   state.  (On the unrestricted view this coincides with [excited_set]
   over reachable states.) *)
let view_excited vw u =
  let acc = ref Bdd.zero in
  Array.iteri
    (fun t op -> if op.signal = u then acc := Bdd.bor !acc vw.eff.(t))
    vw.base.ops;
  !acc

(* [csc_conflicting] on the viewed graph.  The conjunctions are built
   before the places are quantified out: the fused [Bdd.rel_product]
   form measured ~10 MB more peak RSS on the RT edit loop over rings
   10-12 (275 -> 286 MB, perfbench edit_loop, 2-vCPU x86-64 VM). *)
let view_has_csc vw =
  let sym = vw.base in
  List.exists
    (fun u ->
      let ex = view_excited vw u in
      Bdd.intersects
        (Bdd.exists sym.place_vars (Bdd.band vw.vreached ex))
        (Bdd.exists sym.place_vars (Bdd.bdiff vw.vreached ex)))
    (Stg.non_input_signals sym.stg)

(* Project a set of states to its codes, expressed over the signal-index
   variables 0..ns-1 — the space [Nextstate]/[Implement] covers live in.
   The argument must depend only on signal present variables (quantify
   the places out first).  The rename is a simultaneous substitution by
   cofactor descent: source variables are consumed top-down and the
   result rebuilt over target variables with [ite], so numeric overlap
   between the two spaces is harmless. *)
let codes_of sym f =
  let np = Petri.num_places (Stg.net sym.stg) in
  let kind = var_kinds sym in
  let memo = Hashtbl.create 64 in
  let rec go f =
    if Bdd.is_zero f || Bdd.is_one f then f
    else
      match Hashtbl.find_opt memo (Bdd.id f) with
      | Some r -> r
      | None ->
        let v = Bdd.top_var f in
        let u = kind.(v) - np in
        let r =
          Bdd.ite (Bdd.var u)
            (go (Bdd.cofactor f v true))
            (go (Bdd.cofactor f v false))
        in
        Hashtbl.add memo (Bdd.id f) r;
        r
  in
  go f

type regions = {
  on : Bdd.t;
  off : Bdd.t;
  rise : Bdd.t;
  fall : Bdd.t;
  high : Bdd.t;
  low : Bdd.t;
}

(* The per-signal next-state regions of the viewed graph, as code sets —
   exactly what the explicit engine accumulates state by state: with
   v = current value and e = excited, the next value is v xor e; rise
   is !v&e, fall v&e, high v&!e, low !v&!e. *)
let code_regions vw u =
  let sym = vw.base in
  let v = Bdd.var sym.signal_var.(u) in
  let e = view_excited vw u in
  let codes cond =
    codes_of sym (Bdd.exists sym.place_vars (Bdd.band vw.vreached cond))
  in
  let next = Bdd.bxor v e in
  {
    on = codes next;
    off = codes (Bdd.bnot next);
    rise = codes (Bdd.band (Bdd.bnot v) e);
    fall = codes (Bdd.band v e);
    high = codes (Bdd.band v (Bdd.bnot e));
    low = codes (Bdd.band (Bdd.bnot v) (Bdd.bnot e));
  }

(* Per-transition excitation code sets for [u]'s [dir] edges, in
   [Stg.transitions_of] order — what the explicit engine collects state
   by state. *)
let excitation_regions vw u dir =
  let sym = vw.base in
  List.map
    (fun t ->
      codes_of sym
        (Bdd.exists sym.place_vars (Bdd.band vw.vreached vw.eff.(t))))
    (Stg.transitions_of sym.stg u dir)
