(* Engine selection: explicit BFS vs symbolic BDD reachability, and the
   one reachability signature both engines implement.

   The explicit engine wins on the small, control-dominated STGs the
   synthesis flow mostly sees (thousands of states, cheap per-state
   access); the symbolic engine wins when concurrency makes the state
   count exponential in the specification size — the token-ring family
   and RAPPID-scale datapaths.  [Auto] decides from a structural
   estimate: every initially marked place is an independent token able
   to advance concurrently, so the token count bounds the interleaving
   explosion the explicit engine would have to enumerate. *)

module Bitset = Rtcad_util.Bitset
module Bdd = Rtcad_logic.Bdd
module Stg = Rtcad_stg.Stg
module Petri = Rtcad_stg.Petri

type t = Auto | Explicit | Symbolic

let to_string = function
  | Auto -> "auto"
  | Explicit -> "explicit"
  | Symbolic -> "symbolic"

let of_string = function
  | "auto" -> Some Auto
  | "explicit" -> Some Explicit
  | "symbolic" -> Some Symbolic
  | _ -> None

let concurrency_estimate stg =
  Bitset.cardinal (Petri.initial_marking (Stg.net stg))

(* Ten concurrent tokens ≈ the ring-10 family, the first member whose
   state space (~400k) outgrows the explicit engine's default bound. *)
let auto_token_threshold = 10

let select engine stg =
  match engine with
  | Explicit -> `Explicit
  | Symbolic -> `Symbolic
  | Auto ->
    if concurrency_estimate stg >= auto_token_threshold then `Symbolic
    else `Explicit

let build ?(engine = Auto) ?max_states ?par_threshold stg =
  match select engine stg with
  | `Explicit -> Sg.build ?max_states ?par_threshold stg
  | `Symbolic -> Symbolic.materialize ?max_states (Symbolic.analyze stg)

(* --- the reachability signature ---------------------------------------- *)

module type S = sig
  type t
  type view

  val portable : bool
  val analyze : ?max_states:int -> Stg.t -> t
  val trial : ?max_states:int -> Stg.t -> t
  val stg : t -> Stg.t
  val num_states : t -> int
  val live : t -> bool
  val output_persistent : t -> bool
  val concurrent_pairs : t -> (int * int) list
  val unrestricted : t -> view
  val prune : t -> (int * int) list -> view * (int * int) list
  val view_stg : view -> Stg.t
  val view_states : view -> int
  val deadlock_free : view -> bool
  val has_csc : view -> bool
  val code_regions : view -> int -> Symbolic.regions
  val excitation_regions : view -> int -> Stg.dir -> Bdd.t list
  val graph : view -> Sg.t option
end

type ('a, 'v) impl = (module S with type t = 'a and type view = 'v)
type any = Any : ('a, 'v) impl -> any

let code_minterm sg s =
  let n = Stg.num_signals (Sg.stg sg) in
  Bdd.of_minterm n (Array.init n (fun i -> Sg.value sg s i))

(* The explicit engine: an analysis is the state graph, a view is the
   (possibly pruned) graph itself.  Graphs are immutable packed arrays,
   so they may be read on any domain. *)
module Explicit_engine = struct
  type t = Sg.t
  type view = Sg.t

  let portable = true
  let analyze ?max_states stg = Sg.build ?max_states stg
  let trial = analyze
  let stg = Sg.stg
  let num_states = Sg.num_states
  let live = Props.live_transitions
  let output_persistent = Props.is_output_persistent

  (* An nt x nt matrix marked from each state's successor transitions,
     read out row by row: ascending [(t1, t2)] order without a sort. *)
  let concurrent_pairs sg =
    let nt = Petri.num_transitions (Stg.net (Sg.stg sg)) in
    let together = Bytes.make (nt * nt) '\000' in
    let enabled = Array.make nt 0 in
    Sg.iter_states
      (fun s ->
        let k = ref 0 in
        Sg.iter_succs sg s (fun t _ ->
            enabled.(!k) <- t;
            incr k);
        for i = 0 to !k - 1 do
          for j = 0 to !k - 1 do
            let t1 = enabled.(i) and t2 = enabled.(j) in
            if t1 <> t2 then Bytes.set together ((t1 * nt) + t2) '\001'
          done
        done)
      sg;
    let pairs = ref [] in
    for p = (nt * nt) - 1 downto 0 do
      if Bytes.get together p <> '\000' then pairs := (p / nt, p mod nt) :: !pairs
    done;
    !pairs

  let unrestricted sg = sg

  (* An order (a, b) drops every [b] edge out of a state in which [a] is
     also enabled; the surviving states are those still reachable, and
     an order is cut when it drops an edge out of one of them. *)
  let prune sg orders =
    let blockers s t =
      List.filter
        (fun (a, b) -> b = t && a <> t && List.mem a (Sg.enabled sg s))
        orders
    in
    let pruned = Sg.restrict sg ~allowed:(fun s t -> blockers s t = []) in
    let cut = Hashtbl.create 16 in
    Sg.iter_states
      (fun s' ->
        match Sg.find_state sg (Sg.marking pruned s') with
        | None -> assert false
        | Some s ->
          Sg.iter_succs sg s (fun t _ ->
              List.iter (fun o -> Hashtbl.replace cut o ()) (blockers s t)))
      pruned;
    (pruned, Hashtbl.fold (fun o () acc -> o :: acc) cut [])

  let view_stg = Sg.stg
  let view_states = Sg.num_states
  let deadlock_free = Props.deadlock_free
  let has_csc = Encoding.has_csc

  let code_regions sg u =
    let on = ref Bdd.zero
    and off = ref Bdd.zero
    and rise = ref Bdd.zero
    and fall = ref Bdd.zero
    and high = ref Bdd.zero
    and low = ref Bdd.zero in
    Sg.iter_states
      (fun s ->
        let m = code_minterm sg s in
        let v = Sg.value sg s u and e = Sg.excited sg s u in
        if v <> e then on := Bdd.bor !on m else off := Bdd.bor !off m;
        match (v, e) with
        | false, true -> rise := Bdd.bor !rise m
        | true, true -> fall := Bdd.bor !fall m
        | true, false -> high := Bdd.bor !high m
        | false, false -> low := Bdd.bor !low m)
      sg;
    {
      Symbolic.on = !on;
      off = !off;
      rise = !rise;
      fall = !fall;
      high = !high;
      low = !low;
    }

  let excitation_regions sg u dir =
    List.map
      (fun t ->
        let acc = ref Bdd.zero in
        Sg.iter_states
          (fun s ->
            if List.mem t (Sg.enabled sg s) then
              acc := Bdd.bor !acc (code_minterm sg s))
          sg;
        !acc)
      (Stg.transitions_of (Sg.stg sg) u dir)

  let graph sg = Some sg
end

(* The symbolic engine: an analysis is the reachable BDD, a view its
   edge-suppressed restriction.  BDDs are domain-local, so nothing here
   may cross a parallel join; calling-domain analyses go through the
   analysis pool, worker-domain trials run fresh. *)
module Symbolic_engine = struct
  type t = Symbolic.t
  type view = Symbolic.view

  let portable = false
  let analyze ?max_states stg = Symbolic.analyze_cached ?max_states stg
  let trial ?max_states stg = Symbolic.analyze ?max_states stg
  let stg = Symbolic.stg
  let num_states = Symbolic.num_states
  let live = Symbolic.live_transitions
  let output_persistent = Symbolic.is_output_persistent
  let concurrent_pairs = Symbolic.concurrent_pairs
  let unrestricted = Symbolic.unrestricted

  let prune sym orders =
    let n = Petri.num_transitions (Stg.net (Symbolic.stg sym)) in
    let blocked = Array.make n Bdd.zero in
    List.iter
      (fun (a, b) ->
        if a <> b then
          blocked.(b) <- Bdd.bor blocked.(b) (Symbolic.enabled_set sym a))
      orders;
    let view =
      Symbolic.restrict sym ~allowed:(fun t ->
          Bdd.bdiff (Symbolic.enabled_set sym t) blocked.(t))
    in
    let vreached = Symbolic.view_reached view in
    let cut =
      Array.init n (fun t ->
          Bdd.band vreached (Bdd.band (Symbolic.enabled_set sym t) blocked.(t)))
    in
    ( view,
      List.filter
        (fun (a, b) ->
          a <> b && Bdd.intersects cut.(b) (Symbolic.enabled_set sym a))
        orders )

  let view_stg vw = Symbolic.stg (Symbolic.view_base vw)
  let view_states = Symbolic.view_states
  let deadlock_free = Symbolic.view_deadlock_free
  let has_csc = Symbolic.view_has_csc
  let code_regions = Symbolic.code_regions
  let excitation_regions = Symbolic.excitation_regions
  let graph _ = None
end

let explicit : (Sg.t, Sg.t) impl = (module Explicit_engine)
let symbolic : (Symbolic.t, Symbolic.view) impl = (module Symbolic_engine)

let implementation = function
  | `Explicit -> Any explicit
  | `Symbolic -> Any symbolic
