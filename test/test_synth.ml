(* Tests for next-state extraction, implementation styles, lazy covers
   and netlist emission. *)

module Bdd = Rtcad_logic.Bdd
module Stg = Rtcad_stg.Stg
module Library = Rtcad_stg.Library
module Transform = Rtcad_stg.Transform
module Sg = Rtcad_sg.Sg
module Nextstate = Rtcad_synth.Nextstate
module Implement = Rtcad_synth.Implement
module Lazy_cover = Rtcad_synth.Lazy_cover
module Emit = Rtcad_synth.Emit
module Netlist = Rtcad_netlist.Netlist
module Gate = Rtcad_netlist.Gate

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let celement_sg () =
  let stg = Library.c_element () in
  (stg, Sg.build stg)

(* Next-state extraction. *)

let test_nextstate_partition () =
  let stg, sg = celement_sg () in
  let c = Stg.signal_index stg "c" in
  let spec = Nextstate.of_view Rtcad_sg.Engine.explicit sg c in
  let n = Stg.num_signals stg in
  (* on/off partition the reachable codes; regions partition each side. *)
  check "on/off disjoint" true (Bdd.is_zero (Bdd.band spec.Nextstate.on_set spec.Nextstate.off_set));
  let reach = Bdd.bor spec.Nextstate.on_set spec.Nextstate.off_set in
  check "dc is complement" true (Bdd.equal spec.Nextstate.dc_set (Bdd.bnot reach));
  check_int "8 reachable codes" 8 (Bdd.sat_count reach n);
  check "rise in on" true (Bdd.subset spec.Nextstate.rise_region spec.Nextstate.on_set);
  check "fall in off" true (Bdd.subset spec.Nextstate.fall_region spec.Nextstate.off_set);
  check "high in on" true (Bdd.subset spec.Nextstate.high_region spec.Nextstate.on_set);
  check "low in off" true (Bdd.subset spec.Nextstate.low_region spec.Nextstate.off_set)

let test_nextstate_conflict () =
  (* The raw FIFO has a CSC conflict: extraction must refuse. *)
  let stg = Transform.contract_dummies (Library.fifo ()) in
  let sg = Sg.build stg in
  let ro = Stg.signal_index stg "ro" in
  check "conflict raised" true
    (try
       ignore (Nextstate.of_view Rtcad_sg.Engine.explicit sg ro);
       false
     with Nextstate.Conflict _ -> true)

let test_nextstate_all () =
  let stg, sg = celement_sg () in
  let specs = Nextstate.all Rtcad_sg.Engine.explicit sg in
  check_int "one non-input signal" 1 (List.length specs);
  check "it's c" true
    ((List.nth specs 0).Nextstate.signal = Stg.signal_index stg "c")

(* Implementation styles. *)

let test_implement_celement () =
  let _, sg = celement_sg () in
  let spec = List.nth (Nextstate.all Rtcad_sg.Engine.explicit sg) 0 in
  let cx = Implement.synthesize spec Implement.Complex_gate in
  check "complex respects spec" true (Implement.respects_spec spec cx);
  check "complex monotonic" true (Implement.monotonic Rtcad_sg.Engine.explicit sg spec cx);
  (* The classic majority function: 3 cubes of 2 literals. *)
  (match cx with
  | Implement.Complex cover ->
    check_int "6 literals" 6 (Rtcad_logic.Cover.num_literals cover)
  | Implement.Gc _ -> Alcotest.fail "expected complex");
  let gc = Implement.synthesize spec Implement.Generalized_c in
  check "gc respects spec" true (Implement.respects_spec spec gc);
  (match gc with
  | Implement.Gc { set; reset } ->
    (* set = a b, reset = a' b' as a cover of the fall region *)
    check_int "set lits" 2 (Rtcad_logic.Cover.num_literals set);
    check_int "reset lits" 2 (Rtcad_logic.Cover.num_literals reset)
  | Implement.Complex _ -> Alcotest.fail "expected gc")

let test_implement_next_value () =
  let _, sg = celement_sg () in
  let spec = List.nth (Nextstate.all Rtcad_sg.Engine.explicit sg) 0 in
  let gc = Implement.synthesize spec Implement.Generalized_c in
  (* c currently low, both inputs high -> next 1; one input low -> hold. *)
  let env_ab a b v = fun s -> if s = 0 then a else if s = 1 then b else v in
  check "sets" true (Implement.next_value gc ~current:false (env_ab true true false));
  check "holds low" false (Implement.next_value gc ~current:false (env_ab true false false));
  check "holds high" true (Implement.next_value gc ~current:true (env_ab false true true));
  check "resets" false (Implement.next_value gc ~current:true (env_ab false false true))

let test_gc_set_reset_disjoint () =
  (* On every reachable code, set and reset must not fire together. *)
  let _, sg = celement_sg () in
  let spec = List.nth (Nextstate.all Rtcad_sg.Engine.explicit sg) 0 in
  match Implement.synthesize spec Implement.Generalized_c with
  | Implement.Gc { set; reset } ->
    let s = Rtcad_logic.Cover.to_bdd set and r = Rtcad_logic.Cover.to_bdd reset in
    let reach = Bdd.bor spec.Nextstate.on_set spec.Nextstate.off_set in
    check "disjoint on reachable" true (Bdd.is_zero (Bdd.band reach (Bdd.band s r)))
  | Implement.Complex _ -> Alcotest.fail "expected gc"

(* Lazy covers. *)

let rt_sg () =
  (* The pruned Figure-5 state graph, where laziness has room to act. *)
  let stg = Library.fifo_with_state () in
  let sg = Sg.build stg in
  let auto = Rtcad_rt.Generate.automatic ~allow_input_first:true stg sg in
  (stg, (Rtcad_rt.Prune.apply Rtcad_sg.Engine.explicit sg auto).Rtcad_rt.Prune.pruned)

let test_lazy_relax_x () =
  let stg, sg = rt_sg () in
  let x = Stg.signal_index stg "x" in
  let spec = Nextstate.of_view Rtcad_sg.Engine.explicit sg x in
  let gc = Implement.synthesize spec Implement.Generalized_c in
  let r = Lazy_cover.relax sg spec gc in
  (* Laziness never raises cost. *)
  check "not more expensive" true
    (Implement.literal_cost r.Lazy_cover.impl <= Implement.literal_cost gc);
  (* Every constraint is Laziness-tagged and names x's transitions. *)
  check "constraints tagged" true
    (List.for_all
       (fun a -> a.Rtcad_rt.Assumption.origin = Rtcad_rt.Assumption.Laziness)
       r.Lazy_cover.constraints)

let test_lazy_complex_untouched () =
  let _, sg = rt_sg () in
  let spec = List.nth (Nextstate.all Rtcad_sg.Engine.explicit sg) 0 in
  let cx = Implement.synthesize spec Implement.Complex_gate in
  let r = Lazy_cover.relax sg spec cx in
  check "complex unchanged" true (r.Lazy_cover.impl == cx);
  check "no constraints" true (r.Lazy_cover.constraints = [])

let test_early_region_excludes_inputs () =
  (* Early regions only open races against enabled non-input causes. *)
  let stg, sg = rt_sg () in
  let lo = Stg.signal_index stg "lo" in
  List.iter
    (fun t ->
      let early = Lazy_cover.early_region sg t in
      (* lo's rise is caused by the input li+: no legitimate early states. *)
      check "no early region against inputs" true (Bdd.is_zero early))
    (Stg.transitions_of stg lo Stg.Rise)

(* Emission. *)

let test_emit_atomic () =
  let stg, sg = celement_sg () in
  let spec = List.nth (Nextstate.all Rtcad_sg.Engine.explicit sg) 0 in
  let cx = Implement.synthesize spec Implement.Complex_gate in
  let nl = Emit.emit stg [ (Stg.signal_index stg "c", cx) ] in
  check_int "single gate" 1 (Netlist.gate_count nl);
  check_int "two inputs" 2 (List.length (Netlist.inputs nl));
  check "c marked output" true
    (List.mem (Netlist.find_net nl "c") (Netlist.outputs nl));
  (* The atomic gate must compute the majority function. *)
  match Netlist.driver nl (Netlist.find_net nl "c") with
  | Some (g, _) -> check "sop gate" true (match g.Gate.func with Gate.Sop _ -> true | _ -> false)
  | None -> Alcotest.fail "no driver"

let test_emit_decomposed () =
  let stg, sg = celement_sg () in
  let spec = List.nth (Nextstate.all Rtcad_sg.Engine.explicit sg) 0 in
  let cx = Implement.synthesize spec Implement.Complex_gate in
  let nl = Emit.emit ~decompose:true stg [ (Stg.signal_index stg "c", cx) ] in
  (* 3 AND cubes + OR root. *)
  check_int "four gates" 4 (Netlist.gate_count nl)

let test_emit_styles () =
  let stg, sg = celement_sg () in
  let spec = List.nth (Nextstate.all Rtcad_sg.Engine.explicit sg) 0 in
  let cx = Implement.synthesize spec Implement.Complex_gate in
  let static = Emit.emit ~style:Emit.Static_cmos stg [ (spec.Nextstate.signal, cx) ] in
  let domino =
    Emit.emit ~style:(Emit.Domino_cmos { footed = true }) stg [ (spec.Nextstate.signal, cx) ]
  in
  check "domino no more transistors" true
    (Netlist.transistors domino <= Netlist.transistors static);
  (* and the domino rendering is faster gate for gate *)
  let max_delay nl =
    List.fold_left
      (fun acc (_, g, _) -> max acc (Rtcad_netlist.Gate.delay_ps g))
      0.0 (Netlist.gates nl)
  in
  check "domino faster" true (max_delay domino < max_delay static)

let test_emit_errors () =
  let stg, sg = celement_sg () in
  let spec = List.nth (Nextstate.all Rtcad_sg.Engine.explicit sg) 0 in
  let cx = Implement.synthesize spec Implement.Complex_gate in
  check "missing impl" true
    (try
       ignore (Emit.emit stg []);
       false
     with Invalid_argument _ -> true);
  check "impl for input" true
    (try
       ignore (Emit.emit stg [ (Stg.signal_index stg "a", cx) ]);
       false
     with Invalid_argument _ -> true)

let test_emit_initial_values () =
  (* A spec with an initially-high output must produce a netlist whose
     nets settle to that state. *)
  let b = Stg.Build.create () in
  Stg.Build.signal b Stg.Input "a";
  Stg.Build.signal b Stg.Output ~initial:true "y";
  Stg.Build.connect b "a+" "y-";
  Stg.Build.connect b "y-" "a-";
  Stg.Build.connect b "a-" "y+";
  Stg.Build.connect b "y+" "a+";
  Stg.Build.mark_between b "y+" "a+";
  let stg = Stg.Build.finish b in
  let sg = Sg.build stg in
  let spec = List.nth (Nextstate.all Rtcad_sg.Engine.explicit sg) 0 in
  let cx = Implement.synthesize spec Implement.Complex_gate in
  let nl = Emit.emit stg [ (spec.Nextstate.signal, cx) ] in
  check "y starts high" true (Netlist.initial_value nl (Netlist.find_net nl "y"))

let suite =
  [
    ( "nextstate",
      [
        Alcotest.test_case "partition" `Quick test_nextstate_partition;
        Alcotest.test_case "CSC conflict refused" `Quick test_nextstate_conflict;
        Alcotest.test_case "all signals" `Quick test_nextstate_all;
      ] );
    ( "implement",
      [
        Alcotest.test_case "c-element covers" `Quick test_implement_celement;
        Alcotest.test_case "next_value" `Quick test_implement_next_value;
        Alcotest.test_case "gc set/reset disjoint" `Quick test_gc_set_reset_disjoint;
      ] );
    ( "lazy_cover",
      [
        Alcotest.test_case "relax x" `Quick test_lazy_relax_x;
        Alcotest.test_case "complex untouched" `Quick test_lazy_complex_untouched;
        Alcotest.test_case "inputs excluded" `Quick test_early_region_excludes_inputs;
      ] );
    ( "emit",
      [
        Alcotest.test_case "atomic" `Quick test_emit_atomic;
        Alcotest.test_case "decomposed" `Quick test_emit_decomposed;
        Alcotest.test_case "styles" `Quick test_emit_styles;
        Alcotest.test_case "errors" `Quick test_emit_errors;
        Alcotest.test_case "initial values" `Quick test_emit_initial_values;
      ] );
  ]
