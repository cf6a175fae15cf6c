(* Reproduction harness.

     dune exec bench/main.exe               — run every experiment
     dune exec bench/main.exe -- NAME…      — run selected experiments

   One experiment per table and figure of the paper; each prints the rows
   or series the paper reports next to the paper's published values.
   Timing lives in perfbench/ (the end-to-end benchmark) and bench/ab.py
   (its paired gate against a base commit). *)

module Stg = Rtcad_stg.Stg
module Stg_io = Rtcad_stg.Stg_io
module Library = Rtcad_stg.Library
module Transform = Rtcad_stg.Transform
module Sg = Rtcad_sg.Sg
module Encoding = Rtcad_sg.Encoding
module Assumption = Rtcad_rt.Assumption
module Generate = Rtcad_rt.Generate
module Prune = Rtcad_rt.Prune
module Timed_sim = Rtcad_rt.Timed_sim
module Flow = Rtcad_core.Flow
module Check = Rtcad_core.Check
module Fifo_impls = Rtcad_core.Fifo_impls
module Table2 = Rtcad_core.Table2
module Harness = Rtcad_core.Harness
module Netlist = Rtcad_netlist.Netlist
module W = Rtcad_rappid.Workload
module R = Rtcad_rappid.Rappid
module M = Rtcad_rappid.Metrics

let section title = Format.printf "@.===== %s =====@." title

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: RAPPID improvement over a 400 MHz clocked design";
  let stream = W.generate ~seed:7 W.typical ~instructions:200_000 in
  let c = M.compare stream in
  Format.printf "%a@." M.pp c;
  Format.printf "@.paper:  throughput 3x, latency 2x, power 2x, area -22%%@.";
  Format.printf "paper:  testability 95.9%% (chip-level scan+BIST)@.";
  (* Our testability substitute: stuck-at coverage of the RT control
     kernel synthesized by the flow. *)
  let rt = Fifo_impls.relative_timing () in
  let row = Table2.measure ~cycles:60 rt in
  Format.printf "ours :  control-kernel stuck-at coverage %.1f%%@."
    row.Table2.testability_pct

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "Table 2: FIFO implementations";
  let rows = Table2.all ~cycles:200 () in
  Format.printf "%a@." Table2.pp_table rows;
  Format.printf
    "paper:  SI 2160/1560 37.6pJ 39T 91%%;  RT-BM 1020/550 32.2pJ 40T 74%%;@.";
  Format.printf "        RT 595/390 18.2pJ 20T 100%%;  Pulse 350/350 16.2pJ 17T 100%%@."

(* ------------------------------------------------------------------ *)
(* Figure 1                                                            *)
(* ------------------------------------------------------------------ *)

let figure1 () =
  section "Figure 1: RAPPID microarchitecture cycles";
  let stream = W.generate ~seed:7 W.typical ~instructions:200_000 in
  let r = R.run stream in
  Format.printf "%a@." R.pp_result r;
  Format.printf
    "@.paper: tag ~3.6 GHz (up to 4.5), decode ~900 MHz, steer ~700 MHz,@.";
  Format.printf "       3.6 GIPS average, 720M cache lines/s@.";
  Format.printf "@.instruction-mix series (average-case performance):@.";
  Format.printf "%-10s %10s %10s %10s@." "profile" "instr/ns" "Mlines/s" "tag GHz";
  List.iter
    (fun profile ->
      let s = W.generate ~seed:7 profile ~instructions:100_000 in
      let r = R.run s in
      Format.printf "%-10s %10.2f %10.0f %10.2f@." profile.W.name r.R.gips
        (r.R.lines_per_sec /. 1e6) r.R.tag_rate_ghz)
    W.all_profiles

(* ------------------------------------------------------------------ *)
(* Figure 2                                                            *)
(* ------------------------------------------------------------------ *)

let figure2 () =
  section "Figure 2: the relative-timing design flow, stage by stage";
  let spec = Library.fifo () in
  let stg0 = Transform.contract_dummies spec in
  Format.printf "specification: %d signals, %d transitions (after dummy contraction)@."
    (Stg.num_signals stg0)
    (Rtcad_stg.Petri.num_transitions (Stg.net stg0));
  let sg0 = Sg.build stg0 in
  Format.printf "reachability analysis: %d states@." (Sg.num_states sg0);
  Format.printf "state encoding: CSC conflicts = %d@."
    (List.length (Encoding.csc_conflicts sg0));
  let r = Flow.synthesize ~mode:Flow.rt_default spec in
  List.iter
    (fun ins ->
      Format.printf "timing-aware encoding inserted: %a@."
        (Rtcad_sg.Csc.pp_insertion r.Flow.stg) ins)
    r.Flow.insertions;
  Format.printf "RT assumption generation: %d assumptions@."
    (List.length r.Flow.assumptions);
  Format.printf "lazy state graph: %d -> %d states@."
    (Flow.num_states_full r) (Flow.num_states_used r);
  Format.printf "logic synthesis:@.";
  List.iter
    (fun s ->
      Format.printf "  %s = %a@." s.Flow.signal_name (Rtcad_synth.Implement.pp r.Flow.stg)
        s.Flow.impl)
    r.Flow.signals;
  Format.printf "back-annotation: %d required constraints@."
    (List.length r.Flow.constraints);
  let minimal = Check.minimal_constraints r in
  Format.printf "verification: conforms; minimal constraint set = %d@."
    (List.length minimal)

(* ------------------------------------------------------------------ *)
(* Figure 3                                                            *)
(* ------------------------------------------------------------------ *)

let figure3 () =
  section "Figure 3: FIFO controller specification (STG)";
  Format.printf "%a@." Stg_io.print (Library.fifo ());
  let sg = Sg.build (Transform.contract_dummies (Library.fifo ())) in
  Format.printf "@.reachable states: %d; CSC conflicts: %d (the paper's encoding problem)@."
    (Sg.num_states sg)
    (List.length (Encoding.csc_conflicts sg))

(* ------------------------------------------------------------------ *)
(* Figure 4                                                            *)
(* ------------------------------------------------------------------ *)

let figure4 () =
  section "Figure 4: speed-independent FIFO";
  let r = Flow.synthesize ~mode:Flow.Si (Library.fifo ()) in
  Format.printf "%a@." Flow.pp_report r;
  let conf = Check.conformance r in
  Format.printf "@.conforms under unbounded delays: %b (%d configurations)@."
    conf.Rtcad_verify.Conformance.ok conf.Rtcad_verify.Conformance.configurations

(* ------------------------------------------------------------------ *)
(* Figure 5                                                            *)
(* ------------------------------------------------------------------ *)

let figure5 () =
  section "Figure 5: RT FIFO with fully automatic timing assumptions";
  let r =
    Flow.synthesize
      ~mode:(Flow.Rt { user = []; allow_input_first = true; allow_lazy = true })
      (Library.fifo_with_state ())
  in
  Format.printf "%a@." Flow.pp_report r;
  let minimal = Check.minimal_constraints r in
  Format.printf "@.minimal sufficient constraints (paper: five):@.";
  List.iter
    (fun a -> Format.printf "  %a@." (Assumption.pp r.Flow.stg) a)
    minimal;
  Format.printf
    "@.paper's x implementation: x = lo + ro; response time one domino gate@.";
  Format.printf
    "paper's named constraints: lo- before x-, ro- before x-, x+ before ri+@.";
  (* Close the Figure-2 loop: turn each required constraint into a path
     constraint via the earliest common enabling event of a timed run,
     and validate it by separation analysis (Section 5's method applied
     to the flagship circuit). *)
  let module Sim = Rtcad_netlist.Sim in
  let module Paths = Rtcad_verify.Paths in
  let module Separation = Rtcad_verify.Separation in
  let nl = r.Flow.netlist in
  let sim = Sim.create nl in
  Sim.settle sim ();
  let li = Netlist.find_net nl "li" and ri = Netlist.find_net nl "ri" in
  let lo = Netlist.find_net nl "lo" and ro = Netlist.find_net nl "ro" in
  let cause sim = Option.map (fun e -> e.Sim.id) (Sim.last_event sim) in
  Sim.on_change sim lo (fun sim v -> Sim.drive ?cause:(cause sim) sim li (not v) ~after:220.0);
  Sim.on_change sim ro (fun sim v -> Sim.drive ?cause:(cause sim) sim ri v ~after:220.0);
  Sim.drive sim li true ~after:50.0;
  Sim.run sim ~until:20_000.0;
  let events = Sim.events sim in
  Format.printf "@.path constraints (earliest common enabling event) and separation:@.";
  List.iter
    (fun a ->
      let stg = r.Flow.stg in
      let edge t =
        match Stg.label stg t with
        | Stg.Edge { signal; dir } -> (
          match Netlist.find_net nl (Stg.signal_name stg signal) with
          | net -> Some { Paths.net; value = dir = Stg.Rise }
          | exception Not_found -> None)
        | Stg.Dummy -> None
      in
      match (edge a.Assumption.first, edge a.Assumption.second) with
      | Some fast, Some slow -> (
        match Paths.derive events ~fast ~slow with
        | Some p ->
          let v = Separation.check ~margin:0.2 nl p in
          Format.printf "  %a:@.    %a@.    %a@." (Assumption.pp stg) a (Paths.pp nl) p
            Separation.pp_verdict v
        | None -> Format.printf "  %a: endpoints never race in this run@." (Assumption.pp stg) a)
      | _ -> ())
    minimal

(* ------------------------------------------------------------------ *)
(* Figure 6                                                            *)
(* ------------------------------------------------------------------ *)

let figure6 () =
  section "Figure 6: RT FIFO with one user-defined assumption (ring)";
  let mode =
    Flow.Rt
      {
        user = [ (("ri", Stg.Fall), ("li", Stg.Rise)) ];
        allow_input_first = false;
        allow_lazy = true;
      }
  in
  let r =
    Flow.synthesize ~mode
      ~emit_style:(Rtcad_synth.Emit.Domino_cmos { footed = false })
      (Library.fifo ())
  in
  Format.printf "%a@." Flow.pp_report r;
  let minimal = Check.minimal_constraints r in
  Format.printf
    "@.minimal constraints (paper: three - one user, two automatic):@.";
  List.iter (fun a -> Format.printf "  %a@." (Assumption.pp r.Flow.stg) a) minimal;
  (* The Section 4.2 justification: "the token will always arrive at an
     idle cell … if the ring is sufficiently large."  Timed executions of
     an n-cell ring: fraction of receptions where ri- had already
     occurred. *)
  Format.printf "@.ring validation of \"ri- before li+\" (timed executions):@.";
  Format.printf "%-6s %14s@." "cells" "holds";
  List.iter
    (fun n ->
      let stg = Library.ring n in
      let trace = Timed_sim.run ~seed:3 ~steps:(400 * n) stg in
      (* For each request rise r_i+, check the ack a_{i+1 mod n} fell
         before it (value low at that instant). *)
      let value = Array.make (2 * n) false in
      let idx name = Stg.signal_index stg name in
      let total = ref 0 and ok = ref 0 in
      List.iter
        (fun e ->
          match Stg.label stg e.Timed_sim.transition with
          | Stg.Edge { signal; dir } ->
            let name = Stg.signal_name stg signal in
            if dir = Stg.Rise && name.[0] = 'r' then begin
              let i = int_of_string (String.sub name 1 (String.length name - 1)) in
              let ack = idx (Printf.sprintf "a%d" ((i + 1) mod n)) in
              incr total;
              if not value.(ack) then incr ok
            end;
            value.(signal) <- dir = Stg.Rise
          | Stg.Dummy -> ())
        trace;
      Format.printf "%-6d %13.1f%%@." n
        (100.0 *. float_of_int !ok /. float_of_int (max 1 !total)))
    [ 2; 3; 4; 6; 8 ]

(* ------------------------------------------------------------------ *)
(* Figure 7                                                            *)
(* ------------------------------------------------------------------ *)

let figure7 () =
  section "Figure 7: pulse-mode FIFO";
  let v = Fifo_impls.pulse_mode () in
  Format.printf "%a@." Netlist.pp v.Fifo_impls.netlist;
  let period = Harness.pulse_min_period ~cycles:40 v.Fifo_impls.netlist in
  Format.printf "@.minimum stable pulse period: %.0f ps (worst = average, paper: 350/350)@."
    period;
  Format.printf
    "protocol constraints (Figure 7b): 1 causal arc + %d relative-timing arcs@."
    v.Fifo_impls.constraints

(* ------------------------------------------------------------------ *)
(* Section 5: C-element                                                *)
(* ------------------------------------------------------------------ *)

let celement () =
  section "Section 5: RT verification of the decomposed C-element";
  let spec = Library.c_element () in
  let nl = Netlist.create () in
  let a = Netlist.input nl "a" in
  let b = Netlist.input nl "b" in
  let c = Netlist.forward nl "c" in
  let g2 = Rtcad_netlist.Gate.make Rtcad_netlist.Gate.And ~fanin:2 in
  let ab = Netlist.add_gate nl g2 [ (a, false); (b, false) ] "ab" in
  let ac = Netlist.add_gate nl g2 [ (a, false); (c, false) ] "ac" in
  let bc = Netlist.add_gate nl g2 [ (b, false); (c, false) ] "bc" in
  Netlist.set_driver nl c
    (Rtcad_netlist.Gate.make Rtcad_netlist.Gate.Or ~fanin:3)
    [ (ab, false); (ac, false); (bc, false) ];
  Netlist.mark_output nl c;
  Netlist.settle_initial nl;
  let module C = Rtcad_verify.Conformance in
  let untimed = C.check ~circuit:nl ~spec () in
  Format.printf "untimed: %d failures (paper: errors due to timing faults)@."
    (List.length untimed.C.failures);
  let edge name rising = { C.net = Netlist.find_net nl name; rising } in
  let constraints =
    (edge "ac" true, edge "ab" false)
    :: (edge "bc" true, edge "ab" false)
    :: List.concat_map
         (fun g ->
           List.concat_map
             (fun x -> [ (edge g true, edge x false); (edge g false, edge x true) ])
             [ "a"; "b" ])
         [ "ac"; "bc" ]
  in
  let ok = C.check ~net_constraints:constraints ~circuit:nl ~spec () in
  Format.printf "with RT constraints: conforms = %b (used %d)@." ok.C.ok
    (List.length ok.C.used_net_constraints)

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation () =
  section "Ablation: what each ingredient of relative timing buys";
  let spec = Library.fifo () in
  let run name mode =
    match Flow.synthesize ~mode spec with
    | r ->
      let lits = List.fold_left (fun acc s -> acc + s.Flow.literals) 0 r.Flow.signals in
      Format.printf "%-34s states %3d->%3d  literals %2d  constraints %2d@." name
        (Flow.num_states_full r) (Flow.num_states_used r) lits
        (List.length r.Flow.constraints)
    | exception Flow.Synthesis_failure msg -> Format.printf "%-34s FAILED: %s@." name msg
  in
  run "speed-independent" Flow.Si;
  run "RT, automatic only"
    (Flow.Rt { user = []; allow_input_first = false; allow_lazy = false });
  run "RT + lazy covers"
    (Flow.Rt { user = []; allow_input_first = false; allow_lazy = true });
  run "RT + user ring assumption"
    (Flow.Rt
       {
         user = [ (("ri", Stg.Fall), ("li", Stg.Rise)) ];
         allow_input_first = false;
         allow_lazy = true;
       });
  run "RT + homogeneous environment"
    (Flow.Rt { user = []; allow_input_first = true; allow_lazy = true });
  (* The homogeneous-environment model even removes the need for a state
     signal: *)
  let stg0 = Transform.contract_dummies spec in
  let sg0 = Sg.build stg0 in
  let auto = Generate.automatic ~allow_input_first:true stg0 sg0 in
  let pruned = (Prune.apply Rtcad_sg.Engine.explicit sg0 auto).Prune.pruned in
  Format.printf
    "with input-first assumptions the base spec already satisfies CSC: %b@."
    (not (Encoding.has_csc pruned));
  (* Environment-speed sensitivity of the generation rule. *)
  Format.printf "@.assumptions generated vs environment speed (gate delay = 1.0):@.";
  List.iter
    (fun env ->
      let n = List.length (Generate.automatic ~env_delay:env stg0 sg0) in
      Format.printf "  env %.1f: %d assumptions@." env n)
    [ 1.0; 1.5; 2.0; 3.0; 5.0 ]

(* ------------------------------------------------------------------ *)
(* Section 6: the CAD directions, implemented                          *)
(* ------------------------------------------------------------------ *)

let section6 () =
  section "Section 6: future CAD directions, implemented";
  (* (a) High-level specification: compile a handshake process and push
     it through the full flow. *)
  Format.printf "-- high-level compilation --@.";
  let prog =
    Rtcad_hls.Parser.parse "proc buffer (in A, out B) { A?; B! }"
  in
  let stg = Rtcad_hls.Compile.compile prog in
  let r = Flow.synthesize ~mode:Flow.rt_default stg in
  Format.printf "'A?;B!' -> %d-state STG -> %d gates, %d constraints@."
    (Flow.num_states_full r)
    (Netlist.gate_count r.Flow.netlist)
    (List.length (Check.minimal_constraints r));
  (* (b) Timing-aware decomposition / technology mapping. *)
  Format.printf "@.-- timing-aware decomposition --@.";
  let pipeline = Flow.synthesize ~mode:Flow.Si (Library.pipeline_stage ()) in
  let inf = Rtcad_core.Mapping.map_flow ~max_fanin:2 pipeline in
  Format.printf
    "pipeline controller at fan-in 2: conforms=%b with %d inferred internal constraints@."
    inf.Rtcad_core.Mapping.conforms
    (List.length inf.Rtcad_core.Mapping.constraints);
  let hard = Flow.synthesize ~mode:Flow.Si (Library.c_element ()) in
  let inf2 = Rtcad_core.Mapping.map_flow ~max_fanin:2 hard in
  Format.printf
    "decomposed C-element: conforms=%b (deep OR-tree races exceed the repair budget — open problem, as the paper says)@."
    inf2.Rtcad_core.Mapping.conforms;
  (* (c) Constraint propagation to sizing. *)
  Format.printf "@.-- race margins / sizing --@.";
  let module Sim = Rtcad_netlist.Sim in
  let module Gate = Rtcad_netlist.Gate in
  let module Paths = Rtcad_verify.Paths in
  let module Margins = Rtcad_verify.Margins in
  let nl = Netlist.create () in
  let a = Netlist.input nl "a" in
  let fast = Netlist.add_gate nl (Gate.make Gate.Buf ~fanin:1) [ (a, false) ] "fast" in
  let slow =
    Netlist.add_gate nl (Gate.make Gate.And ~fanin:2) [ (a, false); (a, false) ] "slow"
  in
  Netlist.mark_output nl fast;
  Netlist.mark_output nl slow;
  let sim = Sim.create nl in
  Sim.drive sim a true ~after:10.0;
  Sim.run sim ~until:1000.0;
  (match
     Paths.derive (Sim.events sim)
       ~fast:{ Paths.net = fast; value = true }
       ~slow:{ Paths.net = slow; value = true }
   with
  | Some p ->
    let report = Margins.analyze ~margin:0.35 nl [ p ] in
    Format.printf "%a@." (Margins.pp_report nl) report
  | None -> Format.printf "no race found@.");
  (* (d) Testing and DFT. *)
  Format.printf "@.-- DFT --@.";
  let rt = Fifo_impls.relative_timing () in
  let loops = Rtcad_netlist.Dft.feedback_loops rt.Fifo_impls.netlist in
  Format.printf "RT FIFO: %d state loops to break for freeze/scan:@."
    (List.length loops);
  List.iter
    (fun loop ->
      Format.printf "  {%s}@."
        (String.concat " "
           (List.map (Netlist.net_name rt.Fifo_impls.netlist) loop)))
    loops;
  let pulse_no_tap = Netlist.create () in
  let li = Netlist.input pulse_no_tap "li" in
  let ro = Netlist.forward pulse_no_tap "ro" in
  let module G = Rtcad_netlist.Gate in
  let fb1 =
    Netlist.add_gate pulse_no_tap (G.make G.Not ~fanin:1) [ (ro, false) ] "fb1"
  in
  let fb2 =
    Netlist.add_gate pulse_no_tap (G.make G.Not ~fanin:1) [ (fb1, false) ] "fb2"
  in
  Netlist.set_driver pulse_no_tap ro
    (G.make ~style:(G.Domino { footed = false })
       (G.Sop_sr { set_cubes = [ 1 ]; reset_cubes = [ 1 ] })
       ~fanin:2)
    [ (li, false); (fb2, false) ];
  Netlist.mark_output pulse_no_tap ro;
  Netlist.settle_initial pulse_no_tap;
  let stimulus sim = Harness.pulse_stimulus ~cycles:10 sim in
  let plan =
    Rtcad_netlist.Dft.insert_test_points ~target:100.0 ~stimulus ~horizon:40_000.0
      pulse_no_tap
  in
  Format.printf
    "pulse cell: stuck-at %.1f%% -> %.1f%% after tapping {%s} (the paper's 'extra test gate')@."
    plan.Rtcad_netlist.Dft.coverage_before plan.Rtcad_netlist.Dft.coverage_after
    (String.concat " " plan.Rtcad_netlist.Dft.taps)

(* ------------------------------------------------------------------ *)
(* Gate-level calibration of the architecture model                     *)
(* ------------------------------------------------------------------ *)

let calibrated () =
  section "Calibration: architecture cycles derived from synthesized circuits";
  let c = Rtcad_core.Calibrate.run () in
  Format.printf "%a@." Rtcad_core.Calibrate.pp c;
  let stream = W.generate ~seed:7 W.typical ~instructions:100_000 in
  let cmp = M.compare ~rappid_params:c.Rtcad_core.Calibrate.params stream in
  Format.printf "@.Table 1 with calibrated parameters:@.%a@." M.pp cmp;
  Format.printf "@.%a@." R.pp_result cmp.M.rappid;
  Format.printf
    "@.(the tag hop is the measured forward latency of the flow's RT cell;@.";
  Format.printf
    " the buffer recovery its full cycle; the latch reload half the pulse@.";
  Format.printf " cell's minimum period)@."

(* ------------------------------------------------------------------ *)
(* Regression: both flows over the whole specification library          *)
(* ------------------------------------------------------------------ *)

let regression () =
  section "Regression: SI and RT synthesis across the specification library";
  Format.printf "%-10s %7s %22s %22s@." "spec" "states" "SI (gates, conforms)"
    "RT (gates, constraints)";
  List.iter
    (fun (name, stg) ->
      let states =
        Sg.num_states (Sg.build (Transform.contract_dummies stg))
      in
      let si =
        match Flow.synthesize ~mode:Flow.Si stg with
        | r ->
          Printf.sprintf "%d, %b"
            (Netlist.gate_count r.Flow.netlist)
            (Check.conformance r).Rtcad_verify.Conformance.ok
        | exception Flow.Synthesis_failure _ -> "failed"
      in
      let rt =
        match Flow.synthesize ~mode:Flow.rt_default stg with
        | r ->
          Printf.sprintf "%d, %d"
            (Netlist.gate_count r.Flow.netlist)
            (List.length r.Flow.constraints)
        | exception Flow.Synthesis_failure _ -> "failed"
      in
      Format.printf "%-10s %7d %22s %22s@." name states si rt)
    (Library.all_named ())

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", table1);
    ("table2", table2);
    ("figure1", figure1);
    ("figure2", figure2);
    ("figure3", figure3);
    ("figure4", figure4);
    ("figure5", figure5);
    ("figure6", figure6);
    ("figure7", figure7);
    ("celement", celement);
    ("ablation", ablation);
    ("section6", section6);
    ("calibrated", calibrated);
    ("regression", regression);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [] -> List.iter (fun (_, f) -> f ()) experiments
  | names ->
    List.iter
      (fun name ->
        match List.assoc_opt name experiments with
        | Some f -> f ()
        | None ->
          Printf.eprintf "unknown experiment %s; available: %s\n"
            name
            (String.concat " " (List.map fst experiments));
          exit 2)
      names
