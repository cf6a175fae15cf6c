module Bitset = Rtcad_util.Bitset
module Stg = Rtcad_stg.Stg
module Petri = Rtcad_stg.Petri
module Par = Rtcad_par.Par
module Obs = Rtcad_obs.Obs

type mode = Speed_independent | Timing_aware

type waiter_marking = Auto | Unmarked

type insertion = {
  signal_name : string;
  rise_triggers : int list;
  rise_waiters : int list;
  fall_triggers : int list;
  fall_waiters : int list;
  waiter_marking : waiter_marking;
      (* [Auto]: a waiter occurring before the new edge in the canonical
         serialization starts with a token (it consumes the virtual
         previous edge); [Unmarked]: no waiter place starts marked — the
         waiter is sequenced after the new edge within the first cycle. *)
}

(* First-occurrence index of every transition along one canonical
   serialization of the host STG (fire the lowest-index enabled transition
   until each has fired once or a step bound runs out).  Used to decide
   which waiter places must carry an initial token: a waiter that fires
   before the new signal's edge in the cycle consumes the "virtual"
   previous edge, so its place starts marked. *)
let first_occurrences stg =
  let net = Stg.net stg in
  let nt = Petri.num_transitions net in
  let occ = Array.make nt max_int in
  let remaining = ref nt in
  let m = ref (Petri.initial_marking net) in
  let rec go step =
    if !remaining > 0 && step < 4 * nt then begin
      match Petri.enabled_transitions net !m with
      | [] -> ()
      | t :: _ ->
        if occ.(t) = max_int then begin
          occ.(t) <- step;
          decr remaining
        end;
        (match Petri.fire net !m t with
        | m' ->
          m := m';
          go (step + 1)
        | exception Petri.Unsafe _ -> ())
    end
  in
  go 0;
  occ

(* [named:false] skips the [Printf] place-name construction: the search in
   {!resolve} probes thousands of candidate insertions whose names are never
   observed (the winning insertion is re-applied with real names), and the
   formatting otherwise shows up at the top of the profile.  [occ] lets the
   search share one {!first_occurrences} table across all candidates. *)
let apply_gen ?occ ~named stg ins =
  let net = Stg.net stg in
  let np = Petri.num_places net and nt = Petri.num_transitions net in
  let occ = match occ with Some o -> o | None -> first_occurrences stg in
  let pos_of triggers =
    List.fold_left (fun acc t -> max acc (float_of_int occ.(t) +. 0.5)) 0.0 triggers
  in
  let pos_rise = pos_of ins.rise_triggers in
  let pos_fall = max pos_rise (pos_of ins.fall_triggers) in
  let t_rise = nt and t_fall = nt + 1 in
  (* New places: one per trigger arc, one per waiter arc, two ordering
     places.  Numbered after the host's places. *)
  let new_places = ref [] in
  let n_new = ref 0 in
  let fresh name =
    let p = np + !n_new in
    incr n_new;
    new_places := name :: !new_places;
    p
  in
  let pre = Array.make (nt + 2) [] and post = Array.make (nt + 2) [] in
  for t = 0 to nt - 1 do
    pre.(t) <- Petri.pre net t;
    post.(t) <- Petri.post net t
  done;
  let x = ins.signal_name in
  let arc src dst name =
    let p = fresh name in
    post.(src) <- p :: post.(src);
    pre.(dst) <- p :: pre.(dst)
  in
  List.iter
    (fun t ->
      arc t t_rise
        (if named then Printf.sprintf "<%s,%s+>" (Petri.transition_name net t) x else ""))
    ins.rise_triggers;
  List.iter
    (fun t ->
      arc t t_fall
        (if named then Printf.sprintf "<%s,%s->" (Petri.transition_name net t) x else ""))
    ins.fall_triggers;
  (* A waiter that occurs before the new edge in the cycle consumes the
     token of the previous (virtual) edge: its place starts marked. *)
  let waiter_arc src pos t =
    let name =
      if named then
        Printf.sprintf "<%s,%s>"
          (if src = t_rise then x ^ "+" else x ^ "-")
          (Petri.transition_name net t)
      else ""
    in
    let p = fresh name in
    post.(src) <- p :: post.(src);
    pre.(t) <- p :: pre.(t);
    match ins.waiter_marking with
    | Unmarked -> None
    | Auto -> if float_of_int occ.(t) < pos then Some p else None
  in
  let marked_waiter_places =
    List.filter_map (waiter_arc t_rise pos_rise) ins.rise_waiters
    @ List.filter_map (waiter_arc t_fall pos_fall) ins.fall_waiters
  in
  let p_up_down = fresh (if named then Printf.sprintf "<%s+,%s->" x x else "") in
  post.(t_rise) <- p_up_down :: post.(t_rise);
  pre.(t_fall) <- p_up_down :: pre.(t_fall);
  let p_down_up = fresh (if named then Printf.sprintf "<%s-,%s+>" x x else "") in
  post.(t_fall) <- p_down_up :: post.(t_fall);
  pre.(t_rise) <- p_down_up :: pre.(t_rise);
  let place_names =
    Array.append
      (Array.init np (Petri.place_name net))
      (Array.of_list (List.rev !new_places))
  in
  let transition_names =
    Array.append
      (Array.init nt (Petri.transition_name net))
      [| x ^ "+"; x ^ "-" |]
  in
  let initial =
    (p_down_up :: marked_waiter_places) @ Bitset.elements (Petri.initial_marking net)
  in
  let net' = Petri.make ~place_names ~transition_names ~pre ~post ~initial in
  let ns = Stg.num_signals stg in
  let labels =
    Array.append
      (Array.init nt (Stg.label stg))
      [|
        Stg.Edge { signal = ns; dir = Stg.Rise }; Stg.Edge { signal = ns; dir = Stg.Fall };
      |]
  in
  let signal_names = Array.append (Array.init ns (Stg.signal_name stg)) [| x |] in
  let kinds = Array.append (Array.init ns (Stg.kind stg)) [| Stg.Internal |] in
  let initial_values =
    Array.append (Array.init ns (Stg.initial_value stg)) [| false |]
  in
  Stg.make ~net:net' ~labels ~signal_names ~kinds ~initial_values

let apply stg ins = apply_gen ~named:true stg ins

(* Candidate enumeration: trigger sets are singletons or pairs of
   non-dummy, non-input transitions; waiter sets are empty or a single
   non-input transition. *)

let non_input_transitions stg =
  let net = Stg.net stg in
  List.filter
    (fun t ->
      match Stg.label stg t with
      | Stg.Edge { signal; _ } -> not (Stg.is_input stg signal)
      | Stg.Dummy -> false)
    (List.init (Petri.num_transitions net) Fun.id)

let non_dummy_transitions stg =
  let net = Stg.net stg in
  List.filter
    (fun t -> match Stg.label stg t with Stg.Edge _ -> true | Stg.Dummy -> false)
    (List.init (Petri.num_transitions net) Fun.id)

let singletons_and_pairs xs =
  let singles = List.map (fun x -> [ x ]) xs in
  let rec pairs = function
    | [] -> []
    | x :: rest -> List.map (fun y -> [ x; y ]) rest @ pairs rest
  in
  singles @ pairs xs

(* Waiter spaces differ per mode.  Speed-independent insertion must never
   delay an input (that would change the environment contract): waiters
   are the empty set, singletons or pairs of non-input transitions.
   Timing-aware insertion may delay inputs — the new signal is assumed
   faster than the environment response, and each such arc is
   back-annotated as a required timing constraint (e.g. "x+ before ri+"
   in Figure 5(c)) — but only needs single waiters in practice. *)
let waiter_options ~size stg ~mode triggers =
  let net = Stg.net stg in
  let all = List.init (Petri.num_transitions net) Fun.id in
  let not_trigger t = not (List.mem t triggers) in
  let eligible =
    match mode with
    | Timing_aware -> List.filter not_trigger all
    | Speed_independent ->
      List.filter
        (fun t ->
          not_trigger t
          &&
          match Stg.label stg t with
          | Stg.Edge { signal; _ } -> not (Stg.is_input stg signal)
          | Stg.Dummy -> true)
        all
  in
  match size with
  | 0 -> [ [] ]
  | 1 -> List.map (fun t -> [ t ]) eligible
  | 2 ->
    let rec pairs = function
      | [] -> []
      | x :: rest -> List.map (fun y -> [ x; y ]) rest @ pairs rest
    in
    pairs eligible
  | _ -> []

let max_waiter_size = function Timing_aware -> 1 | Speed_independent -> 2

let score ins n_states =
  (100 * (List.length ins.rise_waiters + List.length ins.fall_waiters))
  + (10 * (List.length ins.rise_triggers + List.length ins.fall_triggers))
  + (n_states / 64)

(* One conflict check.  [view] is the graph the caller's verdicts are
   taken on: the analysis itself, or what the caller's hook makes of it
   (typically its RT pruning, which drops edges and can therefore create
   conflicts the whole space does not have).  A clean verdict carries
   the analysis it was taken on, so nothing analyses that STG again. *)
let conflict_free (type a v) (impl : (a, v) Engine.impl) ~(view : a -> v)
    ?max_states stg =
  let module E = (val impl) in
  let a = E.analyze ?max_states stg in
  if E.has_csc (view a) then None else Some a

(* Candidate enumeration: record the first [max_candidates] insertions
   in rounds of growing waiter complexity so the budget is spent on the
   cheapest shapes first (matching the score order).  Returns the
   insertions in enumeration order. *)
let enumerate ~mode ~name ~trigger_space ~max_candidates stg =
  let budget = ref max_candidates in
  let recorded = ref [] in
  let consider ins =
    if !budget > 0 then begin
      decr budget;
      recorded := ins :: !recorded
    end
  in
  let candidates_triggers =
    singletons_and_pairs
      (match trigger_space with
      | `Non_input -> non_input_transitions stg
      | `All -> non_dummy_transitions stg)
  in
  let size_pairs =
    let m = max_waiter_size mode in
    let all =
      List.concat_map
        (fun rs -> List.map (fun fs -> (rs, fs)) (List.init (m + 1) Fun.id))
        (List.init (m + 1) Fun.id)
    in
    List.sort (fun (a, b) (c, d) -> Int.compare (a + b) (c + d)) all
  in
  List.iter
    (fun (rise_size, fall_size) ->
      List.iter
        (fun rise_triggers ->
          List.iter
            (fun fall_triggers ->
              if List.for_all (fun t -> not (List.mem t fall_triggers)) rise_triggers
              then
                List.iter
                  (fun rise_waiters ->
                    List.iter
                      (fun fall_waiters ->
                        let markings =
                          if rise_waiters = [] && fall_waiters = [] then [ Auto ]
                          else [ Auto; Unmarked ]
                        in
                        List.iter
                          (fun waiter_marking ->
                            consider
                              {
                                signal_name = name;
                                rise_triggers;
                                rise_waiters;
                                fall_triggers;
                                fall_waiters;
                                waiter_marking;
                              })
                          markings)
                      (waiter_options ~size:fall_size stg ~mode fall_triggers))
                  (waiter_options ~size:rise_size stg ~mode rise_triggers))
            candidates_triggers)
        candidates_triggers)
    size_pairs;
  List.rev !recorded

(* The trial-insertion search: analyses every candidate across domains,
   then runs the expensive checks in score order.  The engine decides
   one thing: a portable analysis is kept across the parallel join, a
   domain-local one is dropped (workers ship back only the score) and
   the few score-ordered finalists are re-analysed on the calling
   domain — through the engine's pool, so the flow's final reachability
   run of the winning (re-named) insertion can start from it. *)
let search (type a v) (impl : (a, v) Engine.impl) ~mode ~view ?max_states ~occ
    ~recorded stg =
  let module E = (val impl) in
  (* Phase 1: cheap structural validation, collecting scored survivors.
     Folding the per-candidate results back in enumeration order
     reproduces the reversed accumulation a serial loop builds, so the
     sorted order (and therefore the chosen insertion) is identical at
     any job count. *)
  let evaluate ins =
    match E.trial ?max_states (apply_gen ~occ ~named:false stg ins) with
    | exception (Sg.Inconsistent _ | Sg.Too_large _ | Petri.Unsafe _) -> None
    | a ->
      if E.deadlock_free (E.unrestricted a) && E.live a then
        Some (score ins (E.num_states a), ins, if E.portable then Some a else None)
      else None
  in
  let survivors =
    Array.fold_left
      (fun acc -> function None -> acc | Some s -> s :: acc)
      []
      (Par.map_array evaluate (Array.of_list recorded))
  in
  (* Recorded counts, not per-trial increments: the trial loop is the
     hot path; these totals are jobs-invariant because enumeration
     order and the candidate budget are. *)
  Obs.incr ~by:(List.length recorded) "csc.candidates";
  Obs.incr ~by:(List.length survivors) "csc.survivors";
  (* Base persistency matters only for speed-independent insertion. *)
  let was_persistent =
    lazy (E.output_persistent (E.analyze ?max_states stg))
  in
  (* Phase 2: the first finalist passing the expensive checks is the
     minimum-score valid insertion.  Phase 1 analysed each finalist's
     STG without raising, so re-analysing it cannot fail. *)
  let valid (_, ins, kept) =
    let a =
      match kept with
      | Some a -> a
      | None -> E.analyze ?max_states (apply_gen ~occ ~named:false stg ins)
    in
    let ok_persist =
      match mode with
      | Timing_aware -> true
      | Speed_independent ->
        (not (Lazy.force was_persistent)) || E.output_persistent a
    in
    ok_persist
    &&
    let v = view a in
    E.deadlock_free v && not (E.has_csc v)
  in
  List.find_map
    (fun ((_, ins, _) as c) -> if valid c then Some ins else None)
    (List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) survivors)

(* The search for one new signal, on an STG known to have conflicts. *)
let insert impl ~mode ~name ~view ?max_states ~trigger_space ~max_candidates
    stg =
  Obs.span "csc.resolve" ~args:(fun () -> [ ("signal", name) ]) @@ fun () ->
  let occ = first_occurrences stg in
  let recorded = enumerate ~mode ~name ~trigger_space ~max_candidates stg in
  Option.map
    (fun ins -> (apply stg ins, ins))
    (search impl ~mode ~view ?max_states ~occ ~recorded stg)

let view_or_whole (type a v) (impl : (a, v) Engine.impl) view : a -> v =
  let module E = (val impl) in
  Option.value view ~default:E.unrestricted

let resolve ?(mode = Timing_aware) ?(name = "x") ?view ?max_states
    ?(trigger_space = `Non_input) ?(max_candidates = 25_000) impl stg =
  let view = view_or_whole impl view in
  match conflict_free impl ~view ?max_states stg with
  | Some _ -> None
  | None ->
    insert impl ~mode ~name ~view ?max_states ~trigger_space ~max_candidates stg

let resolve_all ?(mode = Timing_aware) ?view ?max_states ?(max_signals = 3)
    ?(max_candidates = 25_000) impl stg =
  let view = view_or_whole impl view in
  (* Try the cheaper non-input trigger space first, then fall back to
     triggering on input edges as well (a state signal set by an input
     literal is perfectly implementable). *)
  let insert_any name stg =
    let attempt trigger_space =
      insert impl ~mode ~name ~view ?max_states ~trigger_space ~max_candidates
        stg
    in
    match attempt `Non_input with Some r -> Some r | None -> attempt `All
  in
  (* Each STG is checked once.  An insertion is kept only while fewer
     than [max_signals] signals are in, so the [max_signals]-th search
     runs but its result is dropped. *)
  let rec go stg acc k =
    match conflict_free impl ~view ?max_states stg with
    | Some a -> Some (stg, List.rev acc, a)
    | None -> (
      match insert_any (Printf.sprintf "x%d" k) stg with
      | Some (stg', ins) when k + 1 < max_signals -> go stg' (ins :: acc) (k + 1)
      | Some _ | None -> None)
  in
  go stg [] 0

let pp_insertion stg ppf ins =
  let net = Stg.net stg in
  let names ts = String.concat "," (List.map (Petri.transition_name net) ts) in
  Format.fprintf ppf "%s+: after {%s}%s; %s-: after {%s}%s" ins.signal_name
    (names ins.rise_triggers)
    (if ins.rise_waiters = [] then "" else Printf.sprintf " before {%s}" (names ins.rise_waiters))
    ins.signal_name (names ins.fall_triggers)
    (if ins.fall_waiters = [] then "" else Printf.sprintf " before {%s}" (names ins.fall_waiters))
