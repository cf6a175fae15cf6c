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

let min_gap trace ~first ~second =
  let occs t =
    List.filter_map
      (fun e -> if e.transition = t then Some (e.enabled_at, e.fired_at) else None)
      trace
  in
  let o1 = occs first and o2 = occs second in
  let overlap (e1, f1) (e2, f2) = e1 <= f2 && e2 <= f1 in
  let gaps =
    List.concat_map
      (fun i1 ->
        List.filter_map
          (fun i2 -> if overlap i1 i2 then Some (snd i2 -. snd i1) else None)
          o2)
      o1
  in
  match gaps with [] -> None | g :: rest -> Some (List.fold_left min g rest)
