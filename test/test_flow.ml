(* Integration tests: the whole Figure-2 flow, the measurement harness
   and the Table-2 variants. *)

module Stg = Rtcad_stg.Stg
module Library = Rtcad_stg.Library
module Sg = Rtcad_sg.Sg
module Encoding = Rtcad_sg.Encoding
module Flow = Rtcad_core.Flow
module Check = Rtcad_core.Check
module Harness = Rtcad_core.Harness
module Fifo_impls = Rtcad_core.Fifo_impls
module Table2 = Rtcad_core.Table2
module Netlist = Rtcad_netlist.Netlist

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fig6_mode =
  Flow.Rt
    {
      user = [ (("ri", Stg.Fall), ("li", Stg.Rise)) ];
      allow_input_first = false;
      allow_lazy = true;
    }

(* Flow, SI mode: every library spec that is SI-implementable must come
   out conforming under unbounded delays. *)
let test_flow_si_all_conform () =
  List.iter
    (fun name ->
      let stg = List.assoc name (Library.all_named ()) in
      let r = Flow.synthesize ~mode:Flow.Si stg in
      let conf = Check.conformance r in
      check (name ^ " conforms untimed") true conf.Rtcad_verify.Conformance.ok;
      check (name ^ " no CSC left") false (Encoding.has_csc (Flow.sg r)))
    [ "fifo"; "celement"; "pipeline"; "selector" ]

let test_flow_rt_fifo () =
  let r = Flow.synthesize ~mode:Flow.rt_default (Library.fifo ()) in
  check "pruned smaller" true (Flow.num_states_used r < Flow.num_states_full r);
  check "constraints back-annotated" true (r.Flow.constraints <> []);
  (* The RT netlist is not SI but conforms under its assumptions. *)
  let untimed = Check.conformance r in
  check "not SI" false untimed.Rtcad_verify.Conformance.ok;
  let constrained = Check.conformance ~constraints:r.Flow.assumptions r in
  check "conforms under assumptions" true constrained.Rtcad_verify.Conformance.ok

let test_flow_fig6_constraints () =
  let r = Flow.synthesize ~mode:fig6_mode (Library.fifo ()) in
  let minimal = Check.minimal_constraints r in
  (* The paper: three required constraints, one user-defined. *)
  check_int "three constraints" 3 (List.length minimal);
  check_int "one user" 1
    (List.length
       (List.filter
          (fun a -> a.Rtcad_rt.Assumption.origin = Rtcad_rt.Assumption.User)
          minimal))

let test_flow_user_assumption_shrinks_logic () =
  let base = Flow.synthesize ~mode:Flow.rt_default (Library.fifo ()) in
  let fig6 = Flow.synthesize ~mode:fig6_mode (Library.fifo ()) in
  let literals r =
    List.fold_left (fun acc s -> acc + s.Flow.literals) 0 r.Flow.signals
  in
  check "user assumption saves literals" true (literals fig6 < literals base)

let test_flow_bad_user_assumption () =
  let mode =
    Flow.Rt
      {
        user = [ (("nope", Stg.Fall), ("li", Stg.Rise)) ];
        allow_input_first = false;
        allow_lazy = true;
      }
  in
  check "unknown signal rejected" true
    (try
       ignore (Flow.synthesize ~mode (Library.fifo ()));
       false
     with Flow.Synthesis_failure _ -> true)

let test_flow_emit_style_override () =
  let static =
    Flow.synthesize ~mode:Flow.rt_default ~emit_style:Rtcad_synth.Emit.Static_cmos
      (Library.fifo ())
  in
  let domino =
    Flow.synthesize ~mode:Flow.rt_default
      ~emit_style:(Rtcad_synth.Emit.Domino_cmos { footed = true })
      (Library.fifo ())
  in
  let max_delay nl =
    List.fold_left
      (fun acc (_, g, _) -> max acc (Rtcad_netlist.Gate.delay_ps g))
      0.0 (Netlist.gates nl)
  in
  check "domino faster gates" true
    (max_delay domino.Flow.netlist < max_delay static.Flow.netlist)

(* Cross-engine synthesis: forcing the symbolic engine on specs small
   enough for the explicit one must produce byte-identical netlists and
   reports — including after a forced sifting pass and table GC, which
   the flow must recover from ([Bdd.restore_order] before cover
   extraction keeps the emitted covers canonical). *)
let report r = Format.asprintf "%a@.%a" Flow.pp_report r Netlist.pp r.Flow.netlist

let test_cross_engine_synthesis () =
  let module Engine = Rtcad_sg.Engine in
  let module Bdd = Rtcad_logic.Bdd in
  let outcome mode engine stg =
    match Flow.synthesize ~mode ~engine stg with
    | r -> Ok r
    | exception Flow.Synthesis_failure msg -> Error msg
  in
  let si = ("si", Flow.Si) and rt = ("rt", Flow.rt_default) in
  List.iter
    (fun (name, stg, modes) ->
      List.iter
        (fun (mode_name, mode) ->
          let case what = Printf.sprintf "%s/%s: %s" name mode_name what in
          match
            (outcome mode Engine.Explicit stg, outcome mode Engine.Symbolic stg)
          with
          | Error e, Error s -> Alcotest.(check string) (case "same refusal") e s
          | Ok explicit, Ok symbolic ->
            Alcotest.(check string)
              (case "netlists agree across engines")
              (report explicit) (report symbolic);
            (* Conformance of the symbolic netlist, on its own terms. *)
            let conf =
              Check.conformance ~constraints:symbolic.Flow.assumptions symbolic
            in
            check (case "symbolic netlist conforms") true
              conf.Rtcad_verify.Conformance.ok;
            (* And again with a perturbed table: sift, reclaim,
               resynthesize.  A groupless sift of the whole table costs
               seconds, so two specs carry this check. *)
            if List.mem name [ "fifo"; "selector" ] then begin
              ignore (Bdd.reorder ());
              ignore (Bdd.gc ());
              let perturbed = Flow.synthesize ~mode ~engine:Engine.Symbolic stg in
              Bdd.restore_order ();
              Alcotest.(check string)
                (case "identical after forced reorder+gc")
                (report symbolic) (report perturbed)
            end
          | _ -> Alcotest.fail (case "one engine refused, the other did not"))
        modes)
    (* The library in both modes, except fifo_x, whose forced-symbolic
       synthesis takes tens of seconds, and the rings, which are in RT
       mode only: SI synthesis of a ring is the CSC search's documented
       limit (ring3's refusal alone takes ~90 s on the symbolic engine,
       which exhausts the candidate budget). *)
    (List.filter_map
       (fun (name, stg) ->
         if name = "fifo_x" || name = "ring3" then None else Some (name, stg, [ si; rt ]))
       (Library.all_named ())
    @ List.map
        (fun n -> (Printf.sprintf "ring%d" n, Library.ring n, [ rt ]))
        [ 3; 4; 5; 6 ])

let test_symbolic_flow_accessors () =
  let module Engine = Rtcad_sg.Engine in
  let r =
    Flow.synthesize ~mode:Flow.rt_default ~engine:Engine.Symbolic (Library.fifo ())
  in
  check "symbolic reach variant" true
    (match r.Flow.reach with
    | Flow.Symbolic_counts _ -> true
    | Flow.Explicit_graphs _ -> false);
  check "state counts exposed" true
    (Flow.num_states_used r <= Flow.num_states_full r && Flow.num_states_full r > 0);
  check "sg accessor raises on symbolic flows" true
    (try
       ignore (Flow.sg r);
       false
     with Invalid_argument _ -> true)

(* Harness. *)

let test_harness_fourphase () =
  let v = Fifo_impls.speed_independent () in
  let m = Harness.measure_fourphase ~cycles:50 v.Fifo_impls.netlist in
  check "cycles measured" true (m.Harness.cycles >= 40);
  check "worst >= avg" true (m.Harness.worst_delay_ps >= m.Harness.avg_delay_ps -. 1.0);
  check "energy positive" true (m.Harness.energy_per_cycle_pj > 0.0)

let test_harness_env_slows_cycle () =
  let v = Fifo_impls.speed_independent () in
  let fast = Harness.measure_fourphase ~cycles:50 v.Fifo_impls.netlist in
  let slow_env =
    { Harness.left_delay_ps = 800.0; right_delay_ps = 800.0; jitter = 0.0; seed = 1 }
  in
  let slow = Harness.measure_fourphase ~env:slow_env ~cycles:50 v.Fifo_impls.netlist in
  check "slower env, longer cycle" true
    (slow.Harness.avg_delay_ps > fast.Harness.avg_delay_ps)

let test_harness_forward_latency () =
  (* The RT cell's forward latency (li+ -> ro+) must be a fraction of its
     full four-phase cycle. *)
  let v = Fifo_impls.relative_timing () in
  let env =
    { Harness.left_delay_ps = 160.0; right_delay_ps = 160.0; jitter = 0.0; seed = 2 }
  in
  let m = Harness.measure_fourphase ~env ~cycles:40 v.Fifo_impls.netlist in
  check "forward measured" true (m.Harness.avg_forward_ps > 0.0);
  check "forward < cycle" true (m.Harness.avg_forward_ps < m.Harness.avg_delay_ps)

let test_harness_pulse () =
  let v = Fifo_impls.pulse_mode () in
  let m = Harness.measure_pulse ~period_ps:2000.0 ~cycles:30 v.Fifo_impls.netlist in
  check "all pulses answered" true (m.Harness.cycles >= 28);
  check "pulse latency small" true (m.Harness.avg_delay_ps < 500.0);
  let minimum = Harness.pulse_min_period ~cycles:30 v.Fifo_impls.netlist in
  check "min period below 2ns" true (minimum < 2000.0);
  check "min period above a gate delay" true (minimum > 50.0)

(* Table 2. *)

(* Gate-level composition: two synthesized RT cells chained into a
   pipeline still complete handshakes, with roughly doubled forward
   latency. *)
let test_pipeline_composition () =
  let cell = (Fifo_impls.relative_timing ()).Fifo_impls.netlist in
  let nl = Netlist.create () in
  let li = Netlist.input nl "li" in
  let ri = Netlist.input nl "ri" in
  let lo = Netlist.forward nl "lo" in
  let ro = Netlist.forward nl "ro" in
  let mid_r = Netlist.forward nl "mid_r" in
  let mid_a = Netlist.forward nl "mid_a" in
  let bind_a = function
    | "li" -> Some li | "lo" -> Some lo | "ro" -> Some mid_r | "ri" -> Some mid_a
    | _ -> None
  in
  let bind_b = function
    | "li" -> Some mid_r | "lo" -> Some mid_a | "ro" -> Some ro | "ri" -> Some ri
    | _ -> None
  in
  let (_ : string -> Netlist.net) = Netlist.instantiate nl ~prefix:"a_" ~bind:bind_a cell in
  let (_ : string -> Netlist.net) = Netlist.instantiate nl ~prefix:"b_" ~bind:bind_b cell in
  Netlist.mark_output nl lo;
  Netlist.mark_output nl ro;
  Netlist.settle_initial nl;
  check_int "twice the gates" (2 * Netlist.gate_count cell) (Netlist.gate_count nl);
  let env =
    { Harness.left_delay_ps = 160.0; right_delay_ps = 160.0; jitter = 0.0; seed = 2 }
  in
  let single = Harness.measure_fourphase ~env ~cycles:40 cell in
  let m = Harness.measure_fourphase ~env ~cycles:40 nl in
  check "pipeline completes" true (m.Harness.cycles >= 30);
  check "forward latency roughly doubles" true
    (m.Harness.avg_forward_ps > 1.5 *. single.Harness.avg_forward_ps
    && m.Harness.avg_forward_ps < 3.0 *. single.Harness.avg_forward_ps)

let test_table2_shape () =
  let rows = Table2.all ~cycles:120 () in
  check_int "four rows" 4 (List.length rows);
  let find name = List.find (fun r -> r.Table2.name = name) rows in
  let si = find "SI" and bm = find "RT-BM" and rt = find "RT" and pulse = find "Pulse" in
  (* The paper's headline movements. *)
  check "BM faster than SI" true (bm.Table2.avg_delay_ps < si.Table2.avg_delay_ps);
  check "RT faster than BM" true (rt.Table2.avg_delay_ps < bm.Table2.avg_delay_ps);
  check "energy falls monotonically" true
    (si.Table2.energy_per_cycle_pj > bm.Table2.energy_per_cycle_pj
    && bm.Table2.energy_per_cycle_pj > rt.Table2.energy_per_cycle_pj);
  check "RT faster than SI" true (rt.Table2.avg_delay_ps < si.Table2.avg_delay_ps);
  check "pulse fastest" true (pulse.Table2.avg_delay_ps < rt.Table2.avg_delay_ps);
  check "pulse worst = avg" true
    (abs_float (pulse.Table2.worst_delay_ps -. pulse.Table2.avg_delay_ps) < 1.0);
  check "RT halves the energy" true
    (rt.Table2.energy_per_cycle_pj < 0.7 *. si.Table2.energy_per_cycle_pj);
  check "pulse cheapest area" true (pulse.Table2.transistors < rt.Table2.transistors);
  check "RT fully testable" true (rt.Table2.testability_pct >= 99.0)

let test_variants_verified () =
  (* Each four-phase variant must conform to the FIFO spec under its own
     assumption regime (SI: untimed; others: with assumptions). *)
  let si = Fifo_impls.speed_independent () in
  let spec_of () =
    let r = Flow.synthesize ~mode:Flow.Si (Library.fifo ()) in
    r.Flow.stg
  in
  ignore (spec_of ());
  check "si has no constraints" true (si.Fifo_impls.constraints = 0);
  let rt = Fifo_impls.relative_timing () in
  check "rt declares constraints" true (rt.Fifo_impls.constraints > 0)

let test_calibration () =
  let c = Rtcad_core.Calibrate.run () in
  let module R = Rtcad_rappid.Rappid in
  check "tag latency sane" true
    (c.Rtcad_core.Calibrate.tag_forward_ps > 50.0
    && c.Rtcad_core.Calibrate.tag_forward_ps < 1000.0);
  check "cycle longer than hop" true
    (c.Rtcad_core.Calibrate.cell_cycle_ps > c.Rtcad_core.Calibrate.tag_forward_ps);
  (* The calibrated model still shows the asynchronous advantage. *)
  let stream = Rtcad_rappid.Workload.generate ~seed:3 Rtcad_rappid.Workload.typical
      ~instructions:20_000 in
  let cmp = Rtcad_rappid.Metrics.compare ~rappid_params:c.Rtcad_core.Calibrate.params stream in
  check "calibrated throughput wins" true
    (cmp.Rtcad_rappid.Metrics.throughput_ratio > 1.5)

let suite =
  [
    ( "flow",
      [
        Alcotest.test_case "SI conformance for all specs" `Quick test_flow_si_all_conform;
        Alcotest.test_case "RT fifo" `Quick test_flow_rt_fifo;
        Alcotest.test_case "fig6 constraint count" `Quick test_flow_fig6_constraints;
        Alcotest.test_case "user assumption shrinks logic" `Quick
          test_flow_user_assumption_shrinks_logic;
        Alcotest.test_case "bad user assumption" `Quick test_flow_bad_user_assumption;
        Alcotest.test_case "emit style override" `Quick test_flow_emit_style_override;
        Alcotest.test_case "cross-engine synthesis byte-identical" `Quick
          test_cross_engine_synthesis;
        Alcotest.test_case "symbolic flow accessors" `Quick
          test_symbolic_flow_accessors;
      ] );
    ( "harness",
      [
        Alcotest.test_case "four-phase measurement" `Quick test_harness_fourphase;
        Alcotest.test_case "environment sensitivity" `Quick test_harness_env_slows_cycle;
        Alcotest.test_case "forward latency" `Quick test_harness_forward_latency;
        Alcotest.test_case "pulse measurement" `Quick test_harness_pulse;
      ] );
    ( "table2",
      [
        Alcotest.test_case "shape of the table" `Quick test_table2_shape;
        Alcotest.test_case "variants verified" `Quick test_variants_verified;
      ] );
    ( "composition",
      [ Alcotest.test_case "two-cell pipeline" `Quick test_pipeline_composition ] );
    ( "calibrate",
      [ Alcotest.test_case "gate-level calibration" `Quick test_calibration ] );
  ]
