module Stg = Rtcad_stg.Stg
module Petri = Rtcad_stg.Petri
module Rng = Rtcad_util.Rng
module Bitset = Rtcad_util.Bitset

type event = { transition : int; enabled_at : float; fired_at : float }
type trace = event list

let delay_of stg ~env_delay ~gate_delay t =
  match Stg.label stg t with
  | Stg.Dummy -> 0.0
  | Stg.Edge { signal; _ } ->
    if Stg.is_input stg signal then env_delay else gate_delay

let run ?(env_delay = 2.0) ?(gate_delay = 1.0) ?(jitter = 0.0) ?(seed = 1) ~steps stg =
  let net = Stg.net stg in
  let rng = Rng.create seed in
  let pending : (int, float * float) Hashtbl.t = Hashtbl.create 16 in
  let schedule now t =
    if not (Hashtbl.mem pending t) then begin
      let d = delay_of stg ~env_delay ~gate_delay t in
      let d = if jitter > 0.0 then d *. (1.0 +. Rng.float rng jitter) else d in
      Hashtbl.replace pending t (now, now +. d)
    end
  in
  let m = ref (Petri.initial_marking net) in
  List.iter (schedule 0.0) (Petri.enabled_transitions net !m);
  let trace = ref [] in
  let rec step k =
    (* A deadlock before [steps] firings simply ends the run: the partial
       trace yields fewer gap observations, so candidate orderings are
       judged conservatively instead of crashing on a non-live spec. *)
    if k < steps && Hashtbl.length pending > 0 then begin
      (* Earliest fire time; random tie-break among the minima. *)
      let best = ref [] and best_time = ref infinity in
      Hashtbl.iter
        (fun t (_, ft) ->
          if ft < !best_time -. 1e-12 then begin
            best_time := ft;
            best := [ t ]
          end
          else if abs_float (ft -. !best_time) <= 1e-12 then best := t :: !best)
        pending;
      let t = Rng.pick rng (Array.of_list !best) in
      let enabled_at, fired_at = Hashtbl.find pending t in
      Hashtbl.remove pending t;
      m := Petri.fire net !m t;
      trace := { transition = t; enabled_at; fired_at } :: !trace;
      (* Transitions disabled by this firing (choice) are descheduled. *)
      Hashtbl.iter
        (fun t' _ -> if not (Petri.enabled net !m t') then Hashtbl.remove pending t')
        (Hashtbl.copy pending);
      List.iter (schedule fired_at) (Petri.enabled_transitions net !m);
      step (k + 1)
    end
  in
  step 0;
  Rtcad_obs.Obs.incr ~by:(List.length !trace) "rt.timed_sim.steps";
  List.rev !trace

(* Render a timed trace as signal waveforms.  Trace times are in delay
   units (the [gate_delay]/[env_delay] scale, nominally ps); they are
   scaled by 1000 to femtoseconds so fractional fire times survive the
   integer timestamps VCD requires. *)
let vcd_of_trace stg trace =
  let w = Rtcad_obs.Vcd.create () in
  let n = Stg.num_signals stg in
  let sigs =
    Array.init n (fun s ->
        Rtcad_obs.Vcd.add_signal w ~initial:(Stg.initial_value stg s)
          (Stg.signal_name stg s))
  in
  List.iter
    (fun e ->
      match Stg.label stg e.transition with
      | Stg.Dummy -> ()
      | Stg.Edge { signal; dir } ->
        let time = int_of_float (Float.round (e.fired_at *. 1000.0)) in
        Rtcad_obs.Vcd.change w ~time sigs.(signal) (dir = Stg.Rise))
    trace;
  w

(* Per-transition episode arrays, in firing order.  A transition is
   rescheduled only once it has fired, so its episodes follow each other
   in time: the episodes of [second] that overlap one episode of [first]
   form a contiguous run whose start only moves forward with [first]'s
   episodes, and a pair's gap is one merge-like sweep.  [ordered.(t)]
   records that both of [t]'s endpoint sequences are nondecreasing,
   which the sweep needs.  The simulator's 1e-12 tie tolerance can break
   that by a few ulps around a zero-delay transition, and a trace is
   plain data; an unordered transition is compared pairwise instead, so
   every answer is exact. *)
type index = {
  enabled : float array array;
  fired : float array array;
  ordered : bool array;
}

let index trace =
  let n = List.fold_left (fun n e -> max n (e.transition + 1)) 0 trace in
  let count = Array.make n 0 in
  List.iter (fun e -> count.(e.transition) <- count.(e.transition) + 1) trace;
  let enabled = Array.map (fun c -> Array.make c 0.0) count in
  let fired = Array.map (fun c -> Array.make c 0.0) count in
  let filled = Array.make n 0 in
  List.iter
    (fun e ->
      let t = e.transition in
      let k = filled.(t) in
      enabled.(t).(k) <- e.enabled_at;
      fired.(t).(k) <- e.fired_at;
      filled.(t) <- k + 1)
    trace;
  let nondecreasing a =
    let ok = ref true in
    for k = 1 to Array.length a - 1 do
      if a.(k) < a.(k - 1) then ok := false
    done;
    !ok
  in
  let ordered =
    Array.init n (fun t -> nondecreasing enabled.(t) && nondecreasing fired.(t))
  in
  { enabled; fired; ordered }

let gap ix ~first ~second =
  let n = Array.length ix.fired in
  if first >= n || second >= n then None
  else begin
    let e1 = ix.enabled.(first) and f1 = ix.fired.(first) in
    let e2 = ix.enabled.(second) and f2 = ix.fired.(second) in
    let n1 = Array.length f1 and n2 = Array.length f2 in
    (* Closed intervals: episodes that merely touch (a zero-delay
       transition fired exactly when the other was enabled) overlap. *)
    let best = ref infinity in
    let seen g = if g < !best then best := g in
    if ix.ordered.(first) && ix.ordered.(second) then begin
      (* [j] is the first [second] episode not over before episode [i]
         of [first] began; it overlaps [i] iff it began before [i]
         fired, and, firing earliest of the overlapping run, it gives
         [i]'s smallest gap. *)
      let j = ref 0 in
      for i = 0 to n1 - 1 do
        while !j < n2 && f2.(!j) < e1.(i) do
          incr j
        done;
        if !j < n2 && e2.(!j) <= f1.(i) then seen (f2.(!j) -. f1.(i))
      done
    end
    else
      for i = 0 to n1 - 1 do
        for j = 0 to n2 - 1 do
          if e1.(i) <= f2.(j) && e2.(j) <= f1.(i) then seen (f2.(j) -. f1.(i))
        done
      done;
    if !best < infinity then Some !best else None
  end
