module Sg = Rtcad_sg.Sg
module Engine = Rtcad_sg.Engine
module Bdd = Rtcad_logic.Bdd

type 'v result = { pruned : 'v; used : Assumption.t list }

exception Deadlock

let apply (type a v) (impl : (a, v) Engine.impl) (full : a) assumptions =
  let module E = (val impl) in
  let pruned, cut =
    E.prune full
      (List.map (fun a -> (a.Assumption.first, a.Assumption.second)) assumptions)
  in
  if E.deadlock_free (E.unrestricted full) && not (E.deadlock_free pruned) then
    raise Deadlock;
  (* One assumption per cut order — the last of any duplicates. *)
  let used = Hashtbl.create 16 in
  List.iter
    (fun a ->
      let o = (a.Assumption.first, a.Assumption.second) in
      if List.mem o cut then Hashtbl.replace used o a)
    assumptions;
  {
    pruned;
    used = List.sort Assumption.compare (Hashtbl.fold (fun _ a acc -> a :: acc) used []);
  }

let apply_consistent impl full assumptions =
  match apply impl full assumptions with
  | r -> r
  | exception Deadlock ->
    let kept =
      List.fold_left
        (fun kept a ->
          let candidate = kept @ [ a ] in
          match apply impl full candidate with
          | _ -> candidate
          | exception Deadlock -> kept)
        [] assumptions
    in
    apply impl full kept

let codes_bdd sg =
  let acc = ref Bdd.zero in
  Sg.iter_states (fun s -> acc := Bdd.bor !acc (Engine.code_minterm sg s)) sg;
  !acc

let pruned_codes ~full ~pruned = Bdd.band (codes_bdd full) (Bdd.bnot (codes_bdd pruned))
