module Stg = Rtcad_stg.Stg
module Petri = Rtcad_stg.Petri

let is_input_trans stg t =
  match Stg.label stg t with
  | Stg.Edge { signal; _ } -> Stg.is_input stg signal
  | Stg.Dummy -> false

(* The generation rule needs the state graph only for one thing: which
   transition pairs are ever enabled together.  Taking the pairs as an
   argument lets either reachability engine feed them
   ([Engine.S.concurrent_pairs]) without materializing a graph;
   everything else (the timed runs that test each candidate ordering)
   works on the STG alone. *)
let automatic_of_pairs ?(env_delay = 2.0) ?(gate_delay = 1.0) ?(margin = 0.5)
    ?(runs = 5) ?steps ?(allow_input_first = false) stg pairs =
  let nt = Petri.num_transitions (Stg.net stg) in
  let steps = match steps with Some s -> s | None -> 40 * nt in
  (* With [allow_input_first] orderings between two
     environment responses are proposed when the homogeneous delay model
     consistently separates them (one response chain strictly contains
     more logic than the other); with it disabled only circuit-first
     orderings survive, the letter of the paper's gate-count rule. *)
  let candidates =
    if allow_input_first then pairs
    else List.filter (fun (t1, _) -> not (is_input_trans stg t1)) pairs
  in
  (* Each run is indexed once, so a candidate costs one sweep over its
     two transitions' episodes per run. *)
  let runs =
    List.init runs (fun i ->
        Timed_sim.index
          (Timed_sim.run ~env_delay ~gate_delay ~jitter:0.05 ~seed:(i + 1) ~steps stg))
  in
  let holds (t1, t2) =
    List.for_all
      (fun ix ->
        match Timed_sim.gap ix ~first:t1 ~second:t2 with
        | Some gap -> gap >= margin
        | None -> false)
      runs
  in
  List.filter_map
    (fun pair ->
      if holds pair then
        Some (Assumption.before ~origin:Assumption.Automatic (fst pair) (snd pair))
      else None)
    candidates

let automatic ?env_delay ?gate_delay ?margin ?runs ?steps ?allow_input_first stg
    sg =
  automatic_of_pairs ?env_delay ?gate_delay ?margin ?runs ?steps
    ?allow_input_first stg
    (let module E = (val Rtcad_sg.Engine.explicit) in
     E.concurrent_pairs sg)
