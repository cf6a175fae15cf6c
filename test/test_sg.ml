(* Tests for state-graph construction, properties, encoding analysis and
   CSC resolution. *)

module Bitset = Rtcad_util.Bitset
module Stg = Rtcad_stg.Stg
module Petri = Rtcad_stg.Petri
module Library = Rtcad_stg.Library
module Sg = Rtcad_sg.Sg
module Props = Rtcad_sg.Props
module Encoding = Rtcad_sg.Encoding
module Csc = Rtcad_sg.Csc
module Engine = Rtcad_sg.Engine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_celement_sg () =
  let sg = Sg.build (Library.c_element ()) in
  (* a and b rise concurrently, c rises, a and b fall concurrently, c falls:
     2x2 diamond on each phase plus the c states. *)
  check_int "states" 8 (Sg.num_states sg);
  check "deadlock free" true (Props.deadlock_free sg);
  check "live" true (Props.live_transitions sg);
  check "persistent" true (Props.is_output_persistent sg);
  check "csc ok" false (Encoding.has_csc sg)

let test_pipeline_sg () =
  let sg = Sg.build (Library.pipeline_stage ()) in
  check "deadlock free" true (Props.deadlock_free sg);
  check "live" true (Props.live_transitions sg);
  check "persistent" true (Props.is_output_persistent sg);
  check "csc ok" false (Encoding.has_csc sg)

let test_fifo_sg () =
  let sg = Sg.build (Library.fifo ()) in
  check "deadlock free" true (Props.deadlock_free sg);
  check "live" true (Props.live_transitions sg);
  (* The paper's point: this spec has a CSC conflict (initial state vs the
     state after a completed left handshake). *)
  check "has csc conflict" true (Encoding.has_csc sg)

let test_fifo_conflict_shape () =
  let stg = Library.fifo () in
  let sg = Sg.build stg in
  let conflicts = Encoding.csc_conflicts sg in
  check "at least one" true (List.length conflicts >= 1);
  let ro = Stg.signal_index stg "ro" in
  check "ro is a conflict signal" true
    (List.exists (fun c -> List.mem ro c.Encoding.signals) conflicts)

let test_selector_sg () =
  let sg = Sg.build (Library.selector ()) in
  check "deadlock free" true (Props.deadlock_free sg);
  check "live" true (Props.live_transitions sg);
  (* Input choice between a+ and b+ is not a persistency violation. *)
  check "persistent" true (Props.is_output_persistent sg)

(* Section 4.2: the assumption "ri- before li+" for a cell in a token ring
   is a *timing* assumption — in the untimed state graph there are
   interleavings violating it for every ring size (a receiver may see a
   new request before its own outgoing acknowledge has fallen).  The timed
   simulation (bench figure6) shows it holds under realistic delays.  Here
   we pin down the untimed behaviour: the ring is live and safe, and the
   violating interleavings do exist. *)
let test_ring_sg () =
  List.iter
    (fun n ->
      let stg = Library.ring n in
      let sg = Sg.build stg in
      check (Printf.sprintf "ring %d deadlock free" n) true (Props.deadlock_free sg);
      check (Printf.sprintf "ring %d live" n) true (Props.live_transitions sg);
      let violations = ref 0 in
      Sg.iter_states
        (fun s ->
          List.iter
            (fun (t, _) ->
              match Stg.label stg t with
              | Stg.Edge { signal; dir = Stg.Rise } ->
                let name = Stg.signal_name stg signal in
                if name.[0] = 'r' then begin
                  let i = int_of_string (String.sub name 1 (String.length name - 1)) in
                  let cell = (i + 1) mod n in
                  let ack = Stg.signal_index stg (Printf.sprintf "a%d" cell) in
                  if Sg.value sg s ack then incr violations
                end
              | Stg.Edge _ | Stg.Dummy -> ())
            (Sg.succs sg s))
        sg;
      check (Printf.sprintf "ring %d: untimed interleavings violate ri-<li+" n) true
        (!violations > 0))
    [ 2; 3; 4 ]

(* Golden reachable-state counts for every library STG (dummies
   contracted, as the synthesis flow builds them).  Pins the reachability
   engine: any change to marking dedup, firing order or code tracking
   that alters the state space fails here. *)
let test_golden_state_counts () =
  let golden =
    [
      ("fifo", 20);
      ("fifo_x", 44);
      ("celement", 8);
      ("pipeline", 12);
      ("selector", 7);
      ("toggle", 8);
      ("call", 15);
      ("ring3", 54);
    ]
  in
  let named = Library.all_named () in
  check_int "covers every library spec" (List.length named) (List.length golden);
  List.iter
    (fun (name, stg) ->
      let expected =
        match List.assoc_opt name golden with
        | Some n -> n
        | None -> Alcotest.failf "no golden count for %s" name
      in
      let sg = Sg.build (Rtcad_stg.Transform.contract_dummies stg) in
      check_int (name ^ " states") expected (Sg.num_states sg))
    named

let test_next_value () =
  let stg = Library.c_element () in
  let sg = Sg.build stg in
  let c = Stg.signal_index stg "c" in
  let s0 = Sg.initial sg in
  check "c not excited initially" false (Sg.excited sg s0 c);
  check "c next value 0" false (Sg.next_value sg s0 c);
  (* After a+ and b+ fire, c is excited to rise. *)
  let step s t_name =
    let edge =
      List.find
        (fun (t, _) -> Format.asprintf "%a" (Stg.pp_transition stg) t = t_name)
        (Sg.succs sg s)
    in
    snd edge
  in
  let s1 = step s0 "a+" in
  let s2 = step s1 "b+" in
  check "c excited" true (Sg.excited sg s2 c);
  check "c next value 1" true (Sg.next_value sg s2 c)

let test_restrict () =
  let stg = Library.c_element () in
  let sg = Sg.build stg in
  (* Forbid firing b+ before a+: in states where both a+ and b+ are
     enabled, drop the b+ edge. *)
  let b_plus =
    List.hd (Stg.transitions_of stg (Stg.signal_index stg "b") Stg.Rise)
  in
  let a_plus =
    List.hd (Stg.transitions_of stg (Stg.signal_index stg "a") Stg.Rise)
  in
  let allowed s t =
    not (t = b_plus && List.mem a_plus (Sg.enabled sg s))
  in
  let sg' = Sg.restrict sg ~allowed in
  check "fewer states" true (Sg.num_states sg' < Sg.num_states sg);
  check "still deadlock free" true (Props.deadlock_free sg');
  check_int "one initial edge" 1 (List.length (Sg.succs sg' (Sg.initial sg')))

let test_too_large () =
  check "bound respected" true
    (try
       ignore (Sg.build ~max_states:3 (Library.fifo ()));
       false
     with Sg.Too_large 3 -> true)

let test_inconsistent () =
  (* a+ followed by a+ again. *)
  let b = Stg.Build.create () in
  Stg.Build.signal b Stg.Input "a";
  Stg.Build.connect b "a+" "a+/2";
  Stg.Build.connect b "a+/2" "a+";
  Stg.Build.mark_between b "a+/2" "a+";
  let stg = Stg.Build.finish b in
  check "inconsistent detected" true
    (try
       ignore (Sg.build stg);
       false
     with Sg.Inconsistent _ -> true)

let test_csc_resolve_si () =
  (* Dummies must be contracted first: a pending silent transition aliases
     codes in a way no state signal can repair. *)
  let stg = Rtcad_stg.Transform.contract_dummies (Library.fifo ()) in
  match Csc.resolve ~mode:Csc.Speed_independent Engine.explicit stg with
  | None -> Alcotest.fail "expected an SI insertion"
  | Some (stg', ins) ->
    check_int "one more signal" (Stg.num_signals stg + 1) (Stg.num_signals stg');
    let sg' = Sg.build stg' in
    check "csc resolved" false (Encoding.has_csc sg');
    check "live" true (Props.live_transitions sg');
    check "deadlock free" true (Props.deadlock_free sg');
    check "waiters used (SI needs sequencing)" true
      (ins.Csc.rise_waiters <> [] || ins.Csc.fall_waiters <> [])

let test_csc_already_fine () =
  check "no insertion needed" true (Csc.resolve Engine.explicit (Library.c_element ()) = None)

let test_fifo_with_state_consistent () =
  let sg = Sg.build (Library.fifo_with_state ()) in
  check "deadlock free" true (Props.deadlock_free sg);
  check "live" true (Props.live_transitions sg)

let suite =
  [
    ( "sg",
      [
        Alcotest.test_case "c-element" `Quick test_celement_sg;
        Alcotest.test_case "pipeline" `Quick test_pipeline_sg;
        Alcotest.test_case "fifo has CSC conflict" `Quick test_fifo_sg;
        Alcotest.test_case "fifo conflict shape" `Quick test_fifo_conflict_shape;
        Alcotest.test_case "selector" `Quick test_selector_sg;
        Alcotest.test_case "ring: ri- before li+" `Quick test_ring_sg;
        Alcotest.test_case "golden state counts" `Quick test_golden_state_counts;
        Alcotest.test_case "next_value" `Quick test_next_value;
        Alcotest.test_case "restrict" `Quick test_restrict;
        Alcotest.test_case "state bound" `Quick test_too_large;
        Alcotest.test_case "inconsistency detection" `Quick test_inconsistent;
      ] );
    ( "csc",
      [
        Alcotest.test_case "resolve fifo (SI)" `Quick test_csc_resolve_si;
        Alcotest.test_case "no conflict, no insertion" `Quick test_csc_already_fine;
        Alcotest.test_case "fifo_with_state consistent" `Quick test_fifo_with_state_consistent;
      ] );
  ]
