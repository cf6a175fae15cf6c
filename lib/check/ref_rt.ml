module Stg = Rtcad_stg.Stg
module Petri = Rtcad_stg.Petri
module Timed_sim = Rtcad_rt.Timed_sim
module Assumption = Rtcad_rt.Assumption

let min_gap (trace : Timed_sim.trace) ~first ~second =
  let occs t =
    List.filter_map
      (fun (e : Timed_sim.event) ->
        if e.transition = t then Some (e.enabled_at, e.fired_at) else None)
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

let automatic_of_pairs ~allow_input_first stg pairs =
  let nt = Petri.num_transitions (Stg.net stg) in
  let traces =
    List.init 5 (fun i -> Timed_sim.run ~jitter:0.05 ~seed:(i + 1) ~steps:(40 * nt) stg)
  in
  let circuit t =
    match Stg.label stg t with
    | Stg.Edge { signal; _ } -> not (Stg.is_input stg signal)
    | Stg.Dummy -> true
  in
  List.filter_map
    (fun (t1, t2) ->
      if
        (allow_input_first || circuit t1)
        && List.for_all
             (fun trace ->
               match min_gap trace ~first:t1 ~second:t2 with
               | Some gap -> gap >= 0.5
               | None -> false)
             traces
      then Some (Assumption.before ~origin:Assumption.Automatic t1 t2)
      else None)
    pairs
