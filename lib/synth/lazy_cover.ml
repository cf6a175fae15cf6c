module Bdd = Rtcad_logic.Bdd
module Cover = Rtcad_logic.Cover
module Bitset = Rtcad_util.Bitset
module Sg = Rtcad_sg.Sg
module Stg = Rtcad_stg.Stg
module Petri = Rtcad_stg.Petri
module Assumption = Rtcad_rt.Assumption

type result = {
  impl : Implement.impl;
  constraints : Assumption.t list;
  guaranteed : (int * int) list;
}

let source_value stg t =
  match Stg.label stg t with
  | Stg.Edge { dir = Stg.Rise; _ } -> false
  | Stg.Edge { dir = Stg.Fall; _ } -> true
  | Stg.Dummy -> invalid_arg "Lazy_cover: dummy transition"

let signal_of stg t =
  match Stg.label stg t with
  | Stg.Edge { signal; _ } -> signal
  | Stg.Dummy -> invalid_arg "Lazy_cover: dummy transition"

(* A state is a legitimate early-enabling state for transition [t] only if
   the race it creates is one the back-annotated constraints can win: every
   still-pending cause must be a circuit (non-input) event that is already
   enabled in that state — "lo- and ro- are enabled simultaneously" in the
   paper's words.  Pending environment events or not-yet-enabled causes
   would make the ordering assumption implausible. *)
let early_region sg t =
  let stg = Sg.stg sg in
  let net = Stg.net stg in
  let u = signal_of stg t and v0 = source_value stg t in
  let pre = Petri.pre net t in
  let is_input_trans c =
    match Stg.label stg c with
    | Stg.Edge { signal; _ } -> Stg.is_input stg signal
    | Stg.Dummy -> false
  in
  let acc = ref Bdd.zero in
  Sg.iter_states
    (fun s ->
      let m = Sg.marking sg s in
      let enabled = Sg.enabled sg s in
      let pending_ok p =
        Bitset.mem m p
        || List.for_all
             (fun c -> (not (is_input_trans c)) && List.mem c enabled)
             (Petri.producers net p)
      in
      if
        Sg.value sg s u = v0
        && (not (List.mem t enabled))
        && List.exists (fun p -> Bitset.mem m p) pre
        && List.for_all pending_ok pre
      then acc := Bdd.bor !acc (Rtcad_sg.Engine.code_minterm sg s))
    sg;
  !acc

(* For a transition instance [t] and a relaxed cover [c], classify each
   cause (producer of an input place of [t]): if some reachable state
   covered by [c] has the cause still pending (its place unmarked), the
   ordering "cause before t" must be guaranteed by timing. *)
let cause_obligations sg t cover_bdd =
  let stg = Sg.stg sg in
  let net = Stg.net stg in
  let u = signal_of stg t and v0 = source_value stg t in
  let pre = Petri.pre net t in
  let pending = Hashtbl.create 8 in
  Sg.iter_states
    (fun s ->
      if Sg.value sg s u = v0 then begin
        let env v = Sg.value sg s v in
        if Bdd.eval cover_bdd env then
          let m = Sg.marking sg s in
          List.iter
            (fun p ->
              if not (Bitset.mem m p) then
                List.iter (fun c -> Hashtbl.replace pending c ()) (Petri.producers net p))
            pre
      end)
    sg;
  let all_causes =
    List.sort_uniq Int.compare (List.concat_map (Petri.producers net) pre)
  in
  List.partition (fun c -> Hashtbl.mem pending c) all_causes

let relax_cover sg transitions required old_upper =
  let early =
    List.fold_left (fun acc t -> Bdd.bor acc (early_region sg t)) Bdd.zero transitions
  in
  let upper = Bdd.bor old_upper early in
  Cover.irredundant_sop ~on_set:required ~dc_set:(Bdd.band upper (Bdd.bnot required))

let relax sg (spec : Nextstate.spec) impl =
  match impl with
  | Implement.Complex _ -> { impl; constraints = []; guaranteed = [] }
  | Implement.Gc { set; reset } ->
    let stg = Sg.stg sg in
    let u = spec.signal in
    let rises = Stg.transitions_of stg u Stg.Rise in
    let falls = Stg.transitions_of stg u Stg.Fall in
    let set_upper = Bdd.bor (Cover.to_bdd set) spec.dc_set in
    let reset_upper = Bdd.bor (Cover.to_bdd reset) spec.dc_set in
    let set' = relax_cover sg rises spec.rise_region set_upper in
    let reset' = relax_cover sg falls spec.fall_region reset_upper in
    (* Keep a relaxation only if it is strictly cheaper. *)
    let set_final = if Cover.cost_literals set' < Cover.cost_literals set then set' else set in
    let reset_final =
      if Cover.cost_literals reset' < Cover.cost_literals reset then reset' else reset
    in
    let obligations transitions cover =
      let cover_bdd = Cover.to_bdd cover in
      List.concat_map
        (fun t ->
          let needed, held = cause_obligations sg t cover_bdd in
          ( List.map (fun c -> Assumption.before ~origin:Assumption.Laziness c t) needed,
            List.map (fun c -> (c, t)) held )
          |> fun (a, b) -> List.map (fun x -> `C x) a @ List.map (fun x -> `G x) b)
        transitions
    in
    let classified =
      obligations rises set_final @ obligations falls reset_final
    in
    let constraints =
      List.filter_map (function `C a -> Some a | `G _ -> None) classified
    in
    let guaranteed =
      List.filter_map (function `G g -> Some g | `C _ -> None) classified
    in
    {
      impl = Implement.Gc { set = set_final; reset = reset_final };
      constraints = List.sort_uniq Assumption.compare constraints;
      guaranteed = List.sort_uniq compare guaranteed;
    }
