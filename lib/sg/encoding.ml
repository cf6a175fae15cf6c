module Bitset = Rtcad_util.Bitset
module Stg = Rtcad_stg.Stg

type conflict = { state_a : int; state_b : int; signals : int list }

let group_by_code sg =
  let groups = Hashtbl.create 64 in
  Sg.iter_states
    (fun s ->
      let c = Sg.code sg s in
      Hashtbl.replace groups c (s :: (Option.value ~default:[] (Hashtbl.find_opt groups c))))
    sg;
  groups

let conflicting_signals sg a b =
  let stg = Sg.stg sg in
  List.filter
    (fun u -> Sg.excited sg a u <> Sg.excited sg b u)
    (Stg.non_input_signals stg)

let usc_conflicts sg =
  let groups = group_by_code sg in
  let conflicts = ref [] in
  Hashtbl.iter
    (fun _ states ->
      let states = List.sort Int.compare states in
      let rec pairs = function
        | [] -> ()
        | a :: rest ->
          List.iter
            (fun b ->
              conflicts :=
                { state_a = a; state_b = b; signals = conflicting_signals sg a b }
                :: !conflicts)
            rest;
          pairs rest
      in
      pairs states)
    groups;
  List.sort compare !conflicts

let csc_conflicts sg = List.filter (fun c -> c.signals <> []) (usc_conflicts sg)
let has_csc sg = csc_conflicts sg <> []

let pp_conflict sg ppf { state_a; state_b; signals } =
  let stg = Sg.stg sg in
  Format.fprintf ppf "s%d/s%d code %a" state_a state_b (Sg.pp_state sg) state_a;
  if signals <> [] then
    Format.fprintf ppf " (signals: %s)"
      (String.concat " " (List.map (Stg.signal_name stg) signals))
