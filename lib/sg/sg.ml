module Bitset = Rtcad_util.Bitset
module Vec = Rtcad_util.Vec
module Stg = Rtcad_stg.Stg
module Petri = Rtcad_stg.Petri
module Par = Rtcad_par.Par
module Obs = Rtcad_obs.Obs

(* Open-addressed map from marking to state id: slots hold [id + 1]
   (0 = empty) and keys are read back from the state vector, so the
   table itself is a bare int array — no buckets, no boxed bindings. *)
type marking_tbl = { mutable slots : int array; mutable used : int }

(* Start small: the CSC search builds thousands of tiny graphs, where a
   large initial table would dominate the build time; doubling reaches
   any size with amortized-constant cost. *)
let mt_create () = { slots = Array.make 64 0; used = 0 }

(* Probe loops live at top level: a local [let rec] would allocate its
   closure on every lookup, i.e. once per explored edge. *)
let rec mt_probe slots mask get m i =
  let v = Array.unsafe_get slots i in
  if v = 0 then -1
  else if Bitset.equal (get (v - 1)) m then v - 1
  else mt_probe slots mask get m ((i + 1) land mask)

let mt_find tbl ~get m =
  let mask = Array.length tbl.slots - 1 in
  mt_probe tbl.slots mask get m (Bitset.hash m land mask)

let rec mt_place slots mask v i =
  if Array.unsafe_get slots i = 0 then Array.unsafe_set slots i v
  else mt_place slots mask v ((i + 1) land mask)

(* [m] (= [get id]) must not already be present. *)
let mt_add tbl ~get id m =
  let mask = Array.length tbl.slots - 1 in
  mt_place tbl.slots mask (id + 1) (Bitset.hash m land mask);
  tbl.used <- tbl.used + 1;
  if 2 * tbl.used > Array.length tbl.slots then begin
    let old = tbl.slots in
    tbl.slots <- Array.make (2 * Array.length old) 0;
    let mask' = Array.length tbl.slots - 1 in
    Array.iter
      (fun v ->
        if v <> 0 then
          mt_place tbl.slots mask' v (Bitset.hash (get (v - 1)) land mask'))
      old
  end

(* Edges are stored in one flat CSR-style array per direction:
   [succ_dat] interleaves (transition, target) pairs for state [s] between
   [succ_off.(s)] and [succ_off.(s + 1)], in the same order the old list
   representation exposed them ([pred_dat]/[pred_off] likewise with
   (transition, source) pairs).  The list-returning accessors materialize
   on demand; the [iter_/num_] variants walk the packed arrays directly. *)
type t = {
  stg : Stg.t;
  markings : Bitset.t array;
  codes : Bitset.t array;
  succ_off : int array;
  succ_dat : int array;
  edges : int Vec.t; (* raw (source, transition, target) triples *)
  mutable preds : (int array * int array) option;
      (* (off, dat), packed on first use: nothing on the hot paths reads
         predecessor edges, so candidate graphs never pay for them *)
  initial : int;
  by_marking : marking_tbl;
}

exception Inconsistent of string
exception Too_large of int

let rec initial_code_from stg n i code =
  if i >= n then code
  else
    initial_code_from stg n (i + 1)
      (if Stg.initial_value stg i then Bitset.add code i else code)

let initial_code stg =
  let n = Stg.num_signals stg in
  initial_code_from stg n 0 (Bitset.create n)

(* Plain concatenation, not [Format.asprintf]: the CSC search probes
   thousands of candidate insertions whose builds fail here, and the
   formatting machinery would dominate those failure paths.  The message
   matches what [pp_transition] would have produced for an edge label. *)
let inconsistent_msg stg signal dir how =
  let n = Stg.signal_name stg signal in
  n ^ (match dir with Stg.Rise -> "+" | Stg.Fall -> "-") ^ " fires with " ^ n ^ how

(* Direction check of [apply_label] alone: raises if transition [t] fires
   against the current value of its signal in [code]. *)
let check_label stg code t =
  match Stg.label stg t with
  | Stg.Dummy -> ()
  | Stg.Edge { signal; dir } ->
    let v = Bitset.mem code signal in
    (match dir with
    | Stg.Rise ->
      if v then raise (Inconsistent (inconsistent_msg stg signal dir " already high"))
    | Stg.Fall ->
      if not v then raise (Inconsistent (inconsistent_msg stg signal dir " already low")))

let apply_label stg code t =
  check_label stg code t;
  match Stg.label stg t with
  | Stg.Dummy -> code
  | Stg.Edge { signal; dir } ->
    (match dir with
    | Stg.Rise -> Bitset.add code signal
    | Stg.Fall -> Bitset.remove code signal)

(* Does [code] followed by transition [t] land exactly on [code']?  The
   successor code is one bit-flip away (or identical, for dummies), so no
   intermediate set needs allocating. *)
let code_matches stg code t code' =
  match Stg.label stg t with
  | Stg.Dummy -> Bitset.equal code' code
  | Stg.Edge { signal; _ } -> Bitset.equal_flip code' code signal

(* Pack an edge triple vector (stride 3: a, t, b) into a flat CSR pair
   ([off], [dat]) of per-[a] interleaved (t, b) runs, preserving edge
   order, via counting sort. *)
let pack_edges ~n ~key ~value edges =
  let ne = Vec.length edges / 3 in
  let off = Array.make (n + 1) 0 in
  for e = 0 to ne - 1 do
    let k = key (Vec.get edges (3 * e)) (Vec.get edges ((3 * e) + 2)) in
    off.(k + 1) <- off.(k + 1) + 2
  done;
  for k = 0 to n - 1 do
    off.(k + 1) <- off.(k + 1) + off.(k)
  done;
  let dat = Array.make (2 * ne) 0 in
  let cursor = Array.copy off in
  for e = 0 to ne - 1 do
    let a = Vec.get edges (3 * e)
    and t = Vec.get edges ((3 * e) + 1)
    and b = Vec.get edges ((3 * e) + 2) in
    let k = key a b in
    let c = cursor.(k) in
    dat.(c) <- t;
    dat.(c + 1) <- value a b;
    cursor.(k) <- c + 2
  done;
  (off, dat)

let build_serial ?(max_states = 200_000) stg =
  let net = Stg.net stg in
  let by_marking = mt_create () in
  let empty = Bitset.create 0 in
  let markings = Vec.create ~capacity:32 ~dummy:empty () in
  let codes = Vec.create ~capacity:32 ~dummy:empty () in
  let get id = Vec.get markings id in
  let add marking code =
    let id = Vec.length markings in
    Vec.push markings marking;
    Vec.push codes code;
    mt_add by_marking ~get id marking;
    id
  in
  let m0 = Petri.initial_marking net in
  let c0 = initial_code stg in
  let s0 = add m0 c0 in
  let edges = Vec.create ~capacity:64 ~dummy:0 () in
  (* States are discovered in BFS order and numbered densely, so a cursor
     over the state vector doubles as the BFS frontier. *)
  let cursor = ref 0 in
  while !cursor < Vec.length markings do
    let s = !cursor in
    incr cursor;
    let m = Vec.get markings s and c = Vec.get codes s in
    Petri.iter_enabled net m (fun t ->
        let m' = Petri.fire net m t in
        check_label stg c t;
        let s' =
          match mt_find by_marking ~get m' with
          | -1 ->
            if Vec.length markings >= max_states then raise (Too_large max_states);
            add m' (apply_label stg c t)
          | s' ->
            if not (code_matches stg c t (Vec.get codes s')) then
              raise (Inconsistent "same marking reached with two different codes");
            s'
        in
        Vec.push edges s;
        Vec.push edges t;
        Vec.push edges s')
  done;
  let n = Vec.length markings in
  let succ_off, succ_dat = pack_edges ~n ~key:(fun s _ -> s) ~value:(fun _ s' -> s') edges in
  {
    stg;
    markings = Vec.to_array markings;
    codes = Vec.to_array codes;
    succ_off;
    succ_dat;
    edges;
    preds = None;
    initial = s0;
    by_marking;
  }

(* --- parallel exploration ---------------------------------------------

   Frontier-parallel BFS over a sharded marking table.  Because state
   ids are canonically renumbered at the end (BFS from the initial
   state, successors in per-state edge order), the result is
   bit-identical to [build_serial] whatever the parallel discovery
   order was: same ids, same packed arrays, same raw edge vector.  Any
   exploration failure falls back to a full serial rerun, so failures
   (which exception, which message) are deterministic too. *)

(* A power of two well above any realistic domain count, so two domains
   rarely contend for the same lock even on adversarial graphs. *)
let nshards = 128

(* Open-addressed like [marking_tbl], but with keys and codes stored
   inline (the global state vector doesn't exist yet while domains are
   claiming ids concurrently) and a mutex guarding each shard. *)
type shard = {
  sm : Mutex.t;
  mutable skeys : Bitset.t array;
  mutable scodes : Bitset.t array;
  mutable sids : int array; (* id + 1; 0 = empty *)
  mutable sused : int;
}

let shard_create empty =
  {
    sm = Mutex.create ();
    skeys = Array.make 64 empty;
    scodes = Array.make 64 empty;
    sids = Array.make 64 0;
    sused = 0;
  }

(* Slot holding [m], or the free slot where it belongs. *)
let rec shard_probe sids skeys mask m i =
  if Array.unsafe_get sids i = 0 then i
  else if Bitset.equal (Array.unsafe_get skeys i) m then i
  else shard_probe sids skeys mask m ((i + 1) land mask)

let rec shard_free sids mask i =
  if Array.unsafe_get sids i = 0 then i else shard_free sids mask ((i + 1) land mask)

let shard_grow sh empty =
  let old_ids = sh.sids and old_keys = sh.skeys and old_codes = sh.scodes in
  let len' = 2 * Array.length old_ids in
  let mask' = len' - 1 in
  sh.sids <- Array.make len' 0;
  sh.skeys <- Array.make len' empty;
  sh.scodes <- Array.make len' empty;
  Array.iteri
    (fun j v ->
      if v <> 0 then begin
        let i = shard_free sh.sids mask' (Bitset.hash old_keys.(j) land mask') in
        sh.sids.(i) <- v;
        sh.skeys.(i) <- old_keys.(j);
        sh.scodes.(i) <- old_codes.(j)
      end)
    old_ids;
  ()

(* Both shard choice and the in-shard probe start come from the same
   hash; disjoint bit ranges keep them independent. *)
let shard_of shards h = Array.unsafe_get shards ((h lsr 20) land (nshards - 1))

(* The serial warm-up bound.  Below it the graph is explored serially
   (tiny graphs — the thousands of trial builds of the CSC search —
   must not pay domain fan-out); beyond it the remaining frontier is
   expanded level-synchronously across domains. *)
let default_par_threshold = 1024

let build_parallel ~max_states ~threshold stg =
  let net = Stg.net stg in
  let empty = Bitset.create 0 in
  let markings = Vec.create ~capacity:32 ~dummy:empty () in
  let codes = Vec.create ~capacity:32 ~dummy:empty () in
  let by_marking = mt_create () in
  let get id = Vec.get markings id in
  let add marking code =
    let id = Vec.length markings in
    Vec.push markings marking;
    Vec.push codes code;
    mt_add by_marking ~get id marking;
    id
  in
  ignore (add (Petri.initial_marking net) (initial_code stg));
  let edges = Vec.create ~capacity:64 ~dummy:0 () in
  (* Serial warm-up: identical to [build_serial] until the state count
     crosses [threshold] (or exploration finishes first). *)
  let cursor = ref 0 in
  while !cursor < Vec.length markings && Vec.length markings < threshold do
    let s = !cursor in
    incr cursor;
    let m = Vec.get markings s and c = Vec.get codes s in
    Petri.iter_enabled net m (fun t ->
        let m' = Petri.fire net m t in
        check_label stg c t;
        let s' =
          match mt_find by_marking ~get m' with
          | -1 ->
            if Vec.length markings >= max_states then raise (Too_large max_states);
            add m' (apply_label stg c t)
          | s' ->
            if not (code_matches stg c t (Vec.get codes s')) then
              raise (Inconsistent "same marking reached with two different codes");
            s'
        in
        Vec.push edges s;
        Vec.push edges t;
        Vec.push edges s')
  done;
  let n0 = Vec.length markings in
  if !cursor >= n0 then begin
    (* Finished below the threshold; package exactly as the serial build
       would have. *)
    let succ_off, succ_dat =
      pack_edges ~n:n0 ~key:(fun s _ -> s) ~value:(fun _ s' -> s') edges
    in
    {
      stg;
      markings = Vec.to_array markings;
      codes = Vec.to_array codes;
      succ_off;
      succ_dat;
      edges;
      preds = None;
      initial = 0;
      by_marking;
    }
  end
  else begin
    let jobs = Par.jobs () in
    let counter = Atomic.make n0 in
    let shards = Array.init nshards (fun _ -> shard_create empty) in
    (* Migrate the warm-up states; no concurrency yet, but take each
       shard's mutex anyway so the writes are published to the worker
       domains that will read them. *)
    for id = 0 to n0 - 1 do
      let m = Vec.get markings id in
      let h = Bitset.hash m in
      let sh = shard_of shards h in
      Mutex.lock sh.sm;
      let i = shard_free sh.sids (Array.length sh.sids - 1) (h land (Array.length sh.sids - 1)) in
      sh.sids.(i) <- id + 1;
      sh.skeys.(i) <- m;
      sh.scodes.(i) <- Vec.get codes id;
      sh.sused <- sh.sused + 1;
      if 2 * sh.sused > Array.length sh.sids then shard_grow sh empty;
      Mutex.unlock sh.sm
    done;
    (* Per-participant accumulators, reused across levels ([pedges]
       accumulates for the whole phase).  Written only by their owner
       domain; read after the join of each [run_workers] call. *)
    let dummy_state = (0, empty, empty) in
    let new_states = Array.init jobs (fun _ -> Vec.create ~dummy:dummy_state ()) in
    let pedges = Array.init jobs (fun _ -> Vec.create ~dummy:0 ()) in
    let frontier =
      ref (Array.init (n0 - !cursor) (fun k ->
               let s = !cursor + k in
               (s, Vec.get markings s, Vec.get codes s)))
    in
    while Array.length !frontier > 0 do
      let fr = !frontier in
      let flen = Array.length fr in
      let next = Atomic.make 0 in
      Par.run_workers (fun ~index ~count ->
          let news = new_states.(index) and es = pedges.(index) in
          let chunk = max 1 (flen / (count * 8)) in
          let rec claim () =
            let lo = Atomic.fetch_and_add next chunk in
            if lo < flen then begin
              let hi = min flen (lo + chunk) in
              for k = lo to hi - 1 do
                let s, m, c = fr.(k) in
                Petri.iter_enabled net m (fun t ->
                    let m' = Petri.fire net m t in
                    check_label stg c t;
                    let h = Bitset.hash m' in
                    let sh = shard_of shards h in
                    (* Nothing inside the critical section may raise:
                       a worker abandoning a locked shard would hang
                       every other participant. *)
                    Mutex.lock sh.sm;
                    let mask = Array.length sh.sids - 1 in
                    let i = shard_probe sh.sids sh.skeys mask m' (h land mask) in
                    let v = sh.sids.(i) in
                    if v <> 0 then begin
                      let s' = v - 1 and c'' = sh.scodes.(i) in
                      Mutex.unlock sh.sm;
                      if not (code_matches stg c t c'') then
                        raise
                          (Inconsistent "same marking reached with two different codes");
                      Vec.push es s;
                      Vec.push es t;
                      Vec.push es s'
                    end
                    else begin
                      let id = Atomic.fetch_and_add counter 1 in
                      if id >= max_states then begin
                        Mutex.unlock sh.sm;
                        raise (Too_large max_states)
                      end;
                      (* [check_label] above passed, so this cannot
                         raise. *)
                      let c' = apply_label stg c t in
                      sh.sids.(i) <- id + 1;
                      sh.skeys.(i) <- m';
                      sh.scodes.(i) <- c';
                      sh.sused <- sh.sused + 1;
                      if 2 * sh.sused > Array.length sh.sids then shard_grow sh empty;
                      Mutex.unlock sh.sm;
                      Vec.push news (id, m', c');
                      Vec.push es s;
                      Vec.push es t;
                      Vec.push es id
                    end)
              done;
              claim ()
            end
          in
          claim ());
      let total_new = Array.fold_left (fun acc v -> acc + Vec.length v) 0 new_states in
      let nf = Array.make total_new dummy_state in
      let k = ref 0 in
      Array.iter
        (fun v ->
          Vec.iter
            (fun x ->
              nf.(!k) <- x;
              incr k)
            v;
          Vec.clear v)
        new_states;
      frontier := nf
    done;
    (* Assembly: gather states out of the shards, pack a provisional
       CSR, then renumber canonically — BFS from the initial state,
       successors in stored (= [Petri.iter_enabled]) order — which is
       exactly the id assignment the serial build produces. *)
    let total = Atomic.get counter in
    let prov_m = Array.make total empty and prov_c = Array.make total empty in
    Array.iter
      (fun sh ->
        Array.iteri
          (fun i v ->
            if v <> 0 then begin
              prov_m.(v - 1) <- sh.skeys.(i);
              prov_c.(v - 1) <- sh.scodes.(i)
            end)
          sh.sids)
      shards;
    let all_edges =
      let ne =
        Vec.length edges + Array.fold_left (fun acc v -> acc + Vec.length v) 0 pedges
      in
      let all = Vec.create ~capacity:(max 1 ne) ~dummy:0 () in
      Vec.iter (Vec.push all) edges;
      Array.iter (fun v -> Vec.iter (Vec.push all) v) pedges;
      all
    in
    let poff, pdat =
      pack_edges ~n:total ~key:(fun s _ -> s) ~value:(fun _ s' -> s') all_edges
    in
    let renum = Array.make total (-1) in
    let old_of_new = Array.make total 0 in
    renum.(0) <- 0;
    let count = ref 1 and head = ref 0 in
    while !head < !count do
      let old = old_of_new.(!head) in
      incr head;
      let k = ref poff.(old) in
      let hi = poff.(old + 1) in
      while !k < hi do
        let tgt = pdat.(!k + 1) in
        if renum.(tgt) = -1 then begin
          renum.(tgt) <- !count;
          old_of_new.(!count) <- tgt;
          incr count
        end;
        k := !k + 2
      done
    done;
    (* Every claimed state was reached over a recorded edge, so the
       canonical BFS covers all of them. *)
    assert (!count = total);
    let markings_arr = Array.init total (fun ns -> prov_m.(old_of_new.(ns))) in
    let codes_arr = Array.init total (fun ns -> prov_c.(old_of_new.(ns))) in
    let cedges = Vec.create ~capacity:(max 1 (Vec.length all_edges)) ~dummy:0 () in
    for ns = 0 to total - 1 do
      let old = old_of_new.(ns) in
      let k = ref poff.(old) in
      let hi = poff.(old + 1) in
      while !k < hi do
        Vec.push cedges ns;
        Vec.push cedges pdat.(!k);
        Vec.push cedges renum.(pdat.(!k + 1));
        k := !k + 2
      done
    done;
    let succ_off, succ_dat =
      pack_edges ~n:total ~key:(fun s _ -> s) ~value:(fun _ s' -> s') cedges
    in
    let by_marking = mt_create () in
    Array.iteri (fun i m -> mt_add by_marking ~get:(fun id -> markings_arr.(id)) i m) markings_arr;
    {
      stg;
      markings = markings_arr;
      codes = codes_arr;
      succ_off;
      succ_dat;
      edges = cedges;
      preds = None;
      initial = 0;
      by_marking;
    }
  end

let build ?(max_states = 200_000) ?(par_threshold = default_par_threshold) stg =
  Obs.span "sg.build" (fun () ->
      let sg =
        if Par.jobs () = 1 || Par.in_parallel_region () then build_serial ~max_states stg
        else
          try build_parallel ~max_states ~threshold:par_threshold stg
          with Inconsistent _ | Too_large _ | Petri.Unsafe _ ->
            (* Which offending edge a parallel exploration trips over first is
               scheduling-dependent; rerun serially so callers (and the
               differential oracle) always see the serial failure. *)
            build_serial ~max_states stg
      in
      (* Post-loop deltas only: the exploration kernels stay untouched. *)
      Obs.incr "sg.builds";
      Obs.incr ~by:(Array.length sg.markings) "sg.states";
      Obs.incr ~by:(Vec.length sg.edges / 3) "sg.edges";
      sg)

(* Package a finished exploration that is already in canonical serial-BFS
   order (state 0 = initial, successors discovered in per-state
   [Petri.iter_enabled] order).  Used by [Symbolic.materialize], which
   replays the serial BFS against the symbolic reachable set: reusing the
   exact packing code here is what makes its output bit-identical to
   [build_serial]. *)
let of_exploration ~stg ~markings ~codes ~edges =
  let n = Array.length markings in
  let succ_off, succ_dat =
    pack_edges ~n ~key:(fun s _ -> s) ~value:(fun _ s' -> s') edges
  in
  let by_marking = mt_create () in
  Array.iteri
    (fun i m -> mt_add by_marking ~get:(fun id -> markings.(id)) i m)
    markings;
  { stg; markings; codes; succ_off; succ_dat; edges; preds = None; initial = 0; by_marking }

let stg sg = sg.stg
let num_states sg = Array.length sg.markings
let initial sg = sg.initial
let marking sg s = sg.markings.(s)
let code sg s = sg.codes.(s)
let value sg s signal = Bitset.mem sg.codes.(s) signal

let num_succs sg s = (sg.succ_off.(s + 1) - sg.succ_off.(s)) / 2

let force_preds sg =
  match sg.preds with
  | Some p -> p
  | None ->
    let p =
      pack_edges ~n:(num_states sg) ~key:(fun _ s' -> s') ~value:(fun s _ -> s) sg.edges
    in
    sg.preds <- Some p;
    p

let rec pairs_of_packed dat lo k acc =
  if k < lo then acc
  else pairs_of_packed dat lo (k - 2) ((dat.(k), dat.(k + 1)) :: acc)

let succs sg s = pairs_of_packed sg.succ_dat sg.succ_off.(s) (sg.succ_off.(s + 1) - 2) []

let preds sg s =
  let off, dat = force_preds sg in
  pairs_of_packed dat off.(s) (off.(s + 1) - 2) []

let iter_packed f dat lo hi =
  let k = ref lo in
  while !k < hi do
    f (Array.unsafe_get dat !k) (Array.unsafe_get dat (!k + 1));
    k := !k + 2
  done

let iter_succs sg s f = iter_packed f sg.succ_dat sg.succ_off.(s) sg.succ_off.(s + 1)

let rec transitions_of_packed dat lo k acc =
  if k < lo then acc else transitions_of_packed dat lo (k - 2) (dat.(k) :: acc)

let enabled sg s =
  transitions_of_packed sg.succ_dat sg.succ_off.(s) (sg.succ_off.(s + 1) - 2) []

let rec excited_from stg dat k hi signal =
  k < hi
  && ((match Stg.label stg dat.(k) with
      | Stg.Edge { signal = u; _ } -> u = signal
      | Stg.Dummy -> false)
     || excited_from stg dat (k + 2) hi signal)

let excited sg s signal =
  excited_from sg.stg sg.succ_dat sg.succ_off.(s) sg.succ_off.(s + 1) signal

let next_value sg s signal = value sg s signal <> excited sg s signal

let find_state sg m =
  match mt_find sg.by_marking ~get:(fun id -> sg.markings.(id)) m with
  | -1 -> None
  | s -> Some s

let deadlocks sg =
  List.filter (fun s -> num_succs sg s = 0) (List.init (num_states sg) Fun.id)

let iter_states f sg =
  for s = 0 to num_states sg - 1 do
    f s
  done

let restrict sg ~allowed =
  let n = num_states sg in
  let renum = Array.make n (-1) in
  let order = ref [] in
  let count = ref 0 in
  let queue = Queue.create () in
  renum.(sg.initial) <- 0;
  order := [ sg.initial ];
  count := 1;
  Queue.add sg.initial queue;
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    iter_succs sg s (fun t s' ->
        if allowed s t && renum.(s') = -1 then begin
          renum.(s') <- !count;
          incr count;
          order := s' :: !order;
          Queue.add s' queue
        end)
  done;
  let old_of_new = Array.make !count 0 in
  List.iter (fun old -> old_of_new.(renum.(old)) <- old) !order;
  let markings = Array.map (fun old -> sg.markings.(old)) old_of_new in
  let codes = Array.map (fun old -> sg.codes.(old)) old_of_new in
  (* The edge vector records (source, transition, target) in the same
     order the old list-based code produced: per source in ascending new
     index, edges reversed relative to the original succ order. *)
  let edges = Vec.create ~dummy:0 () in
  Array.iteri
    (fun snew old ->
      let dat = sg.succ_dat and lo = sg.succ_off.(old) in
      let k = ref (sg.succ_off.(old + 1) - 2) in
      while !k >= lo do
        let t = dat.(!k) and s' = dat.(!k + 1) in
        if allowed old t && renum.(s') >= 0 then begin
          Vec.push edges snew;
          Vec.push edges t;
          Vec.push edges renum.(s')
        end;
        k := !k - 2
      done)
    old_of_new;
  let succ_off, succ_dat = pack_edges ~n:!count ~key:(fun s _ -> s) ~value:(fun _ s' -> s') edges in
  let by_marking = mt_create () in
  Array.iteri (fun i m -> mt_add by_marking ~get:(fun id -> markings.(id)) i m) markings;
  { stg = sg.stg; markings; codes; succ_off; succ_dat; edges; preds = None; initial = 0; by_marking }

let pp_state sg ppf s =
  for i = 0 to Stg.num_signals sg.stg - 1 do
    Format.fprintf ppf "%d" (if value sg s i then 1 else 0)
  done

let pp ppf sg =
  Format.fprintf ppf "@[<v>state graph: %d states@," (num_states sg);
  iter_states
    (fun s ->
      Format.fprintf ppf "  s%d [%a]:" s (pp_state sg) s;
      List.iter
        (fun (t, s') ->
          Format.fprintf ppf " %a->s%d" (Stg.pp_transition sg.stg) t s')
        (succs sg s);
      Format.fprintf ppf "@,")
    sg;
  Format.fprintf ppf "@]"
