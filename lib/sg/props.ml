module Stg = Rtcad_stg.Stg

type persistency_violation = { state : int; disabled : int; by : int }

let signal_of stg t =
  match Stg.label stg t with
  | Stg.Edge { signal; _ } -> Some signal
  | Stg.Dummy -> None

let is_input_trans stg t =
  match signal_of stg t with Some s -> Stg.is_input stg s | None -> false

let persistency_violations sg =
  let stg = Sg.stg sg in
  let violations = ref [] in
  Sg.iter_states
    (fun s ->
      let edges = Sg.succs sg s in
      let enabled = List.map fst edges in
      List.iter
        (fun (by, s') ->
          let still = Sg.enabled sg s' in
          List.iter
            (fun t ->
              if
                t <> by
                && (not (is_input_trans stg t))
                && (not (List.mem t still))
                (* A transition of the same signal re-enabling elsewhere is
                   not a hazard (it is the same excitation). *)
                && signal_of stg t <> signal_of stg by
                && not
                     (List.exists
                        (fun t' -> t' <> t && signal_of stg t' = signal_of stg t)
                        still)
              then violations := { state = s; disabled = t; by } :: !violations)
            enabled)
        edges)
    sg;
  List.rev !violations

let is_output_persistent sg = persistency_violations sg = []

let live_transitions sg =
  let stg = Sg.stg sg in
  let nt = Rtcad_stg.Petri.num_transitions (Stg.net stg) in
  let fired = Array.make nt false in
  Sg.iter_states (fun s -> List.iter (fun (t, _) -> fired.(t) <- true) (Sg.succs sg s)) sg;
  Array.for_all Fun.id fired

let deadlock_free sg = Sg.deadlocks sg = []
