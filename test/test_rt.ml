(* Tests for relative-timing machinery: transforms, timed simulation,
   assumption generation, pruning, and timing-aware CSC resolution. *)

module Stg = Rtcad_stg.Stg
module Petri = Rtcad_stg.Petri
module Library = Rtcad_stg.Library
module Transform = Rtcad_stg.Transform
module Sg = Rtcad_sg.Sg
module Props = Rtcad_sg.Props
module Encoding = Rtcad_sg.Encoding
module Csc = Rtcad_sg.Csc
module Engine = Rtcad_sg.Engine
module Assumption = Rtcad_rt.Assumption
module Timed_sim = Rtcad_rt.Timed_sim
module Generate = Rtcad_rt.Generate
module Prune = Rtcad_rt.Prune

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contracted_fifo () = Transform.contract_dummies (Library.fifo ())

let trans_named stg name =
  let net = Stg.net stg in
  let rec go t =
    if t >= Petri.num_transitions net then raise Not_found
    else if Petri.transition_name net t = name then t
    else go (t + 1)
  in
  go 0

(* Transform tests. *)

let test_contract () =
  let stg = Library.fifo () in
  let stg' = Transform.contract_dummies stg in
  check_int "one fewer transition" 8 (Petri.num_transitions (Stg.net stg'));
  check_int "one fewer place" 9 (Petri.num_places (Stg.net stg'));
  let sg = Sg.build stg' in
  check "deadlock free" true (Props.deadlock_free sg);
  check "live" true (Props.live_transitions sg);
  (* Contraction preserves the signal-visible language: state count of the
     contracted graph equals the dummy-free quotient. *)
  check_int "states" 20 (Sg.num_states sg)

let test_contract_choice_fails () =
  (* A dummy fed by a choice place cannot be contracted. *)
  let b = Stg.Build.create () in
  Stg.Build.signal b Stg.Input "a";
  Stg.Build.signal b Stg.Output "z";
  Stg.Build.dummy b "tau";
  Stg.Build.place b "p";
  Stg.Build.arc_pt b "p" "tau";
  Stg.Build.arc_pt b "p" "a+";
  Stg.Build.connect b "tau" "z+";
  Stg.Build.connect b "a+" "z+";
  Stg.Build.arc_tp b "z+" "p";
  Stg.Build.connect b "z+" "z-";
  Stg.Build.connect b "z-" "a-";
  Stg.Build.mark b "p";
  let stg = Stg.Build.finish b in
  check "refuses choice dummy" true
    (try
       ignore (Transform.contract_dummies stg);
       false
     with Failure _ -> true)

let test_rename () =
  let stg = Library.c_element () in
  let stg' = Transform.rename_signals stg (fun s -> "sig_" ^ s) in
  check "renamed" true (Stg.signal_name stg' 0 = "sig_a");
  check "non-injective rejected" true
    (try
       ignore (Transform.rename_signals stg (fun _ -> "same"));
       false
     with Invalid_argument _ -> true)

let test_set_kind () =
  let stg = Library.c_element () in
  let stg' = Transform.set_kind stg "c" Stg.Internal in
  check "kind changed" true (Stg.kind stg' (Stg.signal_index stg' "c") = Stg.Internal);
  check "others kept" true (Stg.kind stg' 0 = Stg.Input)

(* Timed simulation. *)

let test_timed_sim_basic () =
  let stg = contracted_fifo () in
  let trace = Timed_sim.run ~steps:50 stg in
  check_int "steps" 50 (List.length trace);
  (* Firing times never decrease. *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
      a.Timed_sim.fired_at <= b.Timed_sim.fired_at && monotone rest
    | [ _ ] | [] -> true
  in
  check "monotone time" true (monotone trace);
  (* enabling always precedes firing *)
  check "enable before fire" true
    (List.for_all (fun e -> e.Timed_sim.enabled_at <= e.Timed_sim.fired_at) trace)

let test_timed_sim_deterministic () =
  let stg = contracted_fifo () in
  let t1 = Timed_sim.run ~seed:7 ~steps:30 stg in
  let t2 = Timed_sim.run ~seed:7 ~steps:30 stg in
  check "same seed same trace" true
    (List.for_all2 (fun a b -> a.Timed_sim.transition = b.Timed_sim.transition) t1 t2)

let test_timed_sim_choice () =
  (* The selector has an input free choice; the simulation must resolve it
     without deadlocking and fire both branches over enough steps with
     distinct seeds. *)
  let stg = Library.selector () in
  let fired_a = ref false and fired_b = ref false in
  List.iter
    (fun seed ->
      let trace = Timed_sim.run ~seed ~steps:40 stg in
      List.iter
        (fun e ->
          match Stg.label stg e.Timed_sim.transition with
          | Stg.Edge { signal; dir = Stg.Rise } ->
            if Stg.signal_name stg signal = "a" then fired_a := true;
            if Stg.signal_name stg signal = "b" then fired_b := true
          | Stg.Edge _ | Stg.Dummy -> ())
        trace)
    [ 1; 2; 3; 4; 5 ];
  check "a chosen sometimes" true !fired_a;
  check "b chosen sometimes" true !fired_b

let test_concurrent_pairs () =
  let stg = Library.c_element () in
  let sg = Sg.build stg in
  let pairs =
    let module E = (val Engine.explicit) in
    E.concurrent_pairs sg
  in
  let a_plus = trans_named stg "a+" and b_plus = trans_named stg "b+" in
  check "a+/b+ concurrent" true (List.mem (a_plus, b_plus) pairs);
  check "a+/a- not concurrent" true
    (not (List.mem (a_plus, trans_named stg "a-") pairs))

(* Indexed gaps against the whole-trace reference. *)

let test_gap_touching_and_unordered () =
  let ev transition enabled_at fired_at = { Timed_sim.transition; enabled_at; fired_at } in
  (* t1 is a zero-delay transition enabled exactly when t0 fires; t2's
     second episode ends before its first, which the sweep cannot
     assume. *)
  let trace =
    [
      ev 0 0.0 1.0; ev 1 1.0 1.0; ev 1 1.0 1.0; ev 2 0.0 3.0; ev 0 1.0 2.0;
      ev 2 0.5 1.5; ev 1 2.0 2.0;
    ]
  in
  let ix = Timed_sim.index trace in
  let show = function None -> "none" | Some g -> string_of_float g in
  for first = 0 to 3 do
    for second = 0 to 3 do
      Alcotest.(check string)
        (Printf.sprintf "gap %d -> %d" first second)
        (show (Rtcad_check.Ref_rt.min_gap trace ~first ~second))
        (show (Timed_sim.gap ix ~first ~second))
    done
  done;
  (* t0's episode [1, 2] meets t1's [1, 1] only at its start. *)
  check "touching episodes overlap" true (Timed_sim.gap ix ~first:0 ~second:1 = Some (-1.0));
  (* t2's later, shorter episode gives t0's smallest gap. *)
  check "unordered episodes" true (Timed_sim.gap ix ~first:0 ~second:2 = Some (-0.5));
  check "never fired" true (Timed_sim.gap ix ~first:3 ~second:0 = None)

(* The assumption generator's inputs on every library specification,
   raw and dummy-contracted, and rings 3-7: both engines' concurrent
   pairs, the indexed gap of every transition pair on seeded runs, and
   the generated assumption lists, against their references. *)
let prop_assumptions_match_reference =
  let specs =
    let lib = Library.all_named () in
    Array.of_list
      (lib
      @ List.map
          (fun (n, stg) -> (n ^ "/contracted", Transform.contract_dummies ~strict:false stg))
          lib
      @ List.map (fun n -> (Printf.sprintf "ring%d" n, Library.ring n)) [ 3; 4; 5; 6; 7 ])
  in
  QCheck.Test.make ~name:"generator inputs match the reference" ~count:25
    (QCheck.make
       ~print:(fun (i, seed) -> Printf.sprintf "%s, seed %d" (fst specs.(i)) seed)
       QCheck.Gen.(pair (int_bound (Array.length specs - 1)) (int_range 1 1000)))
    (fun (i, seed) ->
      match Rtcad_check.Oracle.diff_assumptions ~seed (snd specs.(i)) with
      | Rtcad_check.Oracle.Pass -> true
      | v -> QCheck.Test.fail_reportf "%a" Rtcad_check.Oracle.pp_verdict v)

(* Assumption generation. *)

let test_generate_fifo () =
  let stg = contracted_fifo () in
  let sg = Sg.build stg in
  let auto = Generate.automatic stg sg in
  let has first second =
    List.exists
      (fun a ->
        Format.asprintf "%a" (Stg.pp_transition stg) a.Assumption.first = first
        && Format.asprintf "%a" (Stg.pp_transition stg) a.Assumption.second = second)
      auto
  in
  (* The flagship rule: the domino gate's ro+ beats the environment's li-
     (one gate vs an environment response). *)
  check "ro+ before li-" true (has "ro+" "li-");
  (* No assumption may put an input first under the paper's rule. *)
  check "no input-first" true
    (List.for_all
       (fun a ->
         match Stg.label stg a.Assumption.first with
         | Stg.Edge { signal; _ } -> not (Stg.is_input stg signal)
         | Stg.Dummy -> false)
       auto)

let test_generate_input_first_extension () =
  let stg = contracted_fifo () in
  let sg = Sg.build stg in
  let auto = Generate.automatic ~allow_input_first:true stg sg in
  let has first second =
    List.exists
      (fun a ->
        Format.asprintf "%a" (Stg.pp_transition stg) a.Assumption.first = first
        && Format.asprintf "%a" (Stg.pp_transition stg) a.Assumption.second = second)
      auto
  in
  (* Homogeneous environment: the left response li- beats the two-stage
     right response ri+… *)
  check "li- before ri+" true (has "li-" "ri+");
  (* …but the Section 4.2 ring assumption must NOT be derivable: a single
     cell's environment completes the left cycle before ri- arrives. *)
  check "ri- before li+ not generated" false (has "ri-" "li+")

let test_generate_celement_empty () =
  (* Both inputs race; the only output is a join — nothing to assume with
     circuit-first rules. *)
  let stg = Library.c_element () in
  let sg = Sg.build stg in
  check_int "no assumptions" 0 (List.length (Generate.automatic stg sg))

let test_of_edges_occurrences () =
  (* The selector's z+ has two occurrences: one assumption per pair. *)
  let stg = Library.selector () in
  let pairs = Assumption.of_edges stg ("z", Stg.Rise) ("a", Stg.Fall) in
  check_int "two pairs" 2 (List.length pairs);
  check "unknown signal raises" true
    (try
       ignore (Assumption.of_edges stg ("nope", Stg.Rise) ("a", Stg.Fall));
       false
     with Not_found -> true);
  check "same transition rejected" true
    (try
       ignore (Assumption.before 3 3);
       false
     with Invalid_argument _ -> true)

(* Pruning. *)

let test_prune_reduces () =
  let stg = contracted_fifo () in
  let sg = Sg.build stg in
  let auto = Generate.automatic stg sg in
  let r = Prune.apply Engine.explicit sg auto in
  check "fewer states" true (Sg.num_states r.Prune.pruned < Sg.num_states sg);
  check "no deadlock" true (Props.deadlock_free r.Prune.pruned);
  check "some assumptions used" true (r.Prune.used <> []);
  (* A used assumption removed an edge out of a surviving state. *)
  check "surviving state lost an edge" true
    (let lost = ref false in
     Sg.iter_states
       (fun s ->
         match Sg.find_state sg (Sg.marking r.Prune.pruned s) with
         | Some s' when Sg.num_succs r.Prune.pruned s < Sg.num_succs sg s' ->
           lost := true
         | _ -> ())
       r.Prune.pruned;
     !lost)

let test_prune_soundness () =
  (* Every state of the pruned graph must exist in the full graph with the
     same code (pruning only removes behaviours). *)
  let stg = contracted_fifo () in
  let sg = Sg.build stg in
  let auto = Generate.automatic stg sg in
  let r = Prune.apply Engine.explicit sg auto in
  let ok = ref true in
  Sg.iter_states
    (fun s ->
      match Sg.find_state sg (Sg.marking r.Prune.pruned s) with
      | None -> ok := false
      | Some s' ->
        if not (Rtcad_util.Bitset.equal (Sg.code sg s') (Sg.code r.Prune.pruned s)) then
          ok := false)
    r.Prune.pruned;
  check "pruned subset of full" true !ok

let test_prune_empty_assumptions () =
  let stg = contracted_fifo () in
  let sg = Sg.build stg in
  let r = Prune.apply Engine.explicit sg [] in
  check_int "identity" (Sg.num_states sg) (Sg.num_states r.Prune.pruned);
  check "nothing used" true (r.Prune.used = [])

let test_pruned_codes () =
  let stg = contracted_fifo () in
  let sg = Sg.build stg in
  let auto = Generate.automatic stg sg in
  let r = Prune.apply Engine.explicit sg auto in
  let dc = Prune.pruned_codes ~full:sg ~pruned:r.Prune.pruned in
  (* The DC set is non-empty iff pruning removed at least one whole code. *)
  let count = Rtcad_logic.Bdd.sat_count dc (Stg.num_signals stg) in
  check "dc codes counted" true (count >= 0);
  (* No pruned-graph code may be declared don't-care. *)
  let clash = ref false in
  Sg.iter_states
    (fun s ->
      let env v = Sg.value r.Prune.pruned s v in
      if Rtcad_logic.Bdd.eval dc env then clash := true)
    r.Prune.pruned;
  check "pruned codes disjoint from DC" false !clash

(* User assumptions (Section 4.2). *)

let test_user_assumption_fig6 () =
  let stg = contracted_fifo () in
  let sg = Sg.build stg in
  let user = Assumption.of_edges stg ("ri", Stg.Fall) ("li", Stg.Rise) in
  check_int "one pair" 1 (List.length user);
  let auto = Generate.automatic stg sg in
  let r = Prune.apply Engine.explicit sg (user @ auto) in
  check "no deadlock" true (Props.deadlock_free r.Prune.pruned);
  check "tighter than auto alone" true
    (Sg.num_states r.Prune.pruned
    <= Sg.num_states (Prune.apply Engine.explicit sg auto).Prune.pruned)

(* Timing-aware CSC resolution end to end. *)

let rt_view sg =
  let stg = Sg.stg sg in
  let auto = Generate.automatic ~runs:2 stg sg in
  (Prune.apply Engine.explicit sg auto).Prune.pruned

let test_timing_aware_resolution () =
  let stg = contracted_fifo () in
  match Csc.resolve ~mode:Csc.Timing_aware ~view:rt_view Engine.explicit stg with
  | None -> Alcotest.fail "expected a timing-aware insertion"
  | Some (stg', _) ->
    let v = rt_view (Sg.build stg') in
    check "csc resolved under RT" false (Encoding.has_csc v);
    check "pruned graph live" true (Props.deadlock_free v)

let test_fifo_with_state_rt () =
  (* The hand-inserted Figure 5(b) STG: CSC holds only under the automatic
     assumptions with the homogeneous-environment extension. *)
  let stg = Library.fifo_with_state () in
  let sg = Sg.build stg in
  check "conflicted untimed" true (Encoding.has_csc sg);
  let auto = Generate.automatic ~allow_input_first:true stg sg in
  let r = Prune.apply Engine.explicit sg auto in
  check "resolved under RT" false (Encoding.has_csc r.Prune.pruned)

let suite =
  [
    ( "transform",
      [
        Alcotest.test_case "contract dummies" `Quick test_contract;
        Alcotest.test_case "contract refuses choice" `Quick test_contract_choice_fails;
        Alcotest.test_case "rename" `Quick test_rename;
        Alcotest.test_case "set_kind" `Quick test_set_kind;
      ] );
    ( "timed_sim",
      [
        Alcotest.test_case "basic run" `Quick test_timed_sim_basic;
        Alcotest.test_case "deterministic" `Quick test_timed_sim_deterministic;
        Alcotest.test_case "choice resolution" `Quick test_timed_sim_choice;
        Alcotest.test_case "concurrent pairs" `Quick test_concurrent_pairs;
        Alcotest.test_case "gap: touching, unordered" `Quick
          test_gap_touching_and_unordered;
        QCheck_alcotest.to_alcotest prop_assumptions_match_reference;
      ] );
    ( "rt_generate",
      [
        Alcotest.test_case "fifo assumptions" `Quick test_generate_fifo;
        Alcotest.test_case "input-first extension" `Quick test_generate_input_first_extension;
        Alcotest.test_case "c-element: none" `Quick test_generate_celement_empty;
      ] );
    ( "rt_assumption",
      [ Alcotest.test_case "of_edges occurrences" `Quick test_of_edges_occurrences ] );
    ( "rt_prune",
      [
        Alcotest.test_case "reduces states" `Quick test_prune_reduces;
        Alcotest.test_case "soundness" `Quick test_prune_soundness;
        Alcotest.test_case "empty set" `Quick test_prune_empty_assumptions;
        Alcotest.test_case "pruned codes DC" `Quick test_pruned_codes;
        Alcotest.test_case "fig6 user assumption" `Quick test_user_assumption_fig6;
      ] );
    ( "rt_csc",
      [
        Alcotest.test_case "timing-aware resolution" `Quick test_timing_aware_resolution;
        Alcotest.test_case "fig5 STG under RT" `Quick test_fifo_with_state_rt;
      ] );
  ]
