(* Where the committed expected values come from, and why they can be
   trusted.  [expect] recomputes every key each workload can produce
   and rewrites perfbench/expected/*.txt.  [validate] recomputes them
   too, requires them to equal the committed files, and cross-checks
   them with the repository's independent oracles:

   - synth_cold: [Oracle.flow_invariants] (CSC and conformance) on every
     explicit RT flow, [Oracle.diff_sg] against [Ref_sg] on the encoded
     STG of every spec the explicit engine can hold, untimed
     conformance of every SI netlist, byte-equal explicit and symbolic
     reports on rings 6 and 8, and the closed-form ring state count
     2n*3^(n-1) for the symbolic rings;
   - edit_loop: [Oracle.diff_incremental] on every catalogue edit of
     every ring (delta-seeded vs warm store vs scratch, and seeded vs
     scratch reachable sets);
   - serve_mix: every pool request answered by an in-process session;
   - sim_stream: the streaming farm against test/golden/rappid.summary.json,
     and the Table-2 rows at 200 cycles against EXPERIMENTS.md. *)

open Common
module Oracle = Rtcad_check.Oracle
module Check = Rtcad_core.Check
module Table2 = Rtcad_core.Table2
module Harness = Rtcad_core.Harness
module Fifo_impls = Rtcad_core.Fifo_impls
module R = Rtcad_rappid.Rappid
module W = Rtcad_rappid.Workload

let synth_cold () =
  List.map
    (fun ((s : Synth_cold.spec), r) -> (s.Synth_cold.key, flow_text r))
    (Synth_cold.all_outputs ())

let edit_loop () =
  List.map (fun (k, r) -> (k, flow_text r)) (Edit_loop.all_outputs ())

let serve_mix () =
  List.map
    (fun (k, out) ->
      match out with
      | Some text -> (k, text)
      | None -> failwith ("pool request fails in-process: " ^ k))
    (Serve_mix.all_outputs ())

let entries =
  [
    ("synth_cold", synth_cold);
    ("edit_loop", edit_loop);
    ("serve_mix", serve_mix);
    ("sim_stream", Sim_stream.all_outputs);
  ]

let expect () =
  List.iter
    (fun (name, f) ->
      let e = f () in
      Expected.save name e;
      Printf.printf "%s: %d expected values\n%!" name (List.length e))
    entries;
  0

let failures = ref 0

let verdict what ok detail =
  if not ok then incr failures;
  Printf.printf "%-4s %s%s\n%!" (if ok then "ok" else "FAIL") what
    (if detail = "" then "" else ": " ^ detail)

let oracle what = function
  | Oracle.Pass -> verdict what true ""
  | v -> verdict what false (Format.asprintf "%a" Oracle.pp_verdict v)

let matches_committed name e =
  let exp = Expected.load name in
  let bad =
    List.filter
      (fun (k, text) -> Hashtbl.find_opt exp k <> Some (digest text))
      e
  in
  verdict
    (Printf.sprintf "%s: %d recomputed values equal the committed ones" name
       (List.length e))
    (bad = [] && Hashtbl.length exp = List.length e)
    (String.concat ", " (List.map fst bad))

let ring_states n =
  let rec pow b k = if k = 0 then 1 else b * pow b (k - 1) in
  2 * n * pow 3 (n - 1)

let validate_synth_cold () =
  let flows = Synth_cold.all_outputs () in
  List.iter
    (fun ((s : Synth_cold.spec), (r : Flow.t)) ->
      let k = s.Synth_cold.key in
      if s.Synth_cold.symbolic then begin
        match Scanf.sscanf_opt k "ring%d/" (fun n -> n) with
        | Some n ->
          verdict (k ^ ": closed-form state count")
            (Flow.num_states_full r = ring_states n)
            (string_of_int (Flow.num_states_full r))
        | None -> ()
      end
      else begin
        oracle (k ^ ": diff_sg on the encoded STG") (Oracle.diff_sg r.Flow.stg);
        match s.Synth_cold.mode with
        | Flow.Si ->
          verdict (k ^ ": SI netlist conforms untimed")
            (Check.conformance r).Rtcad_verify.Conformance.ok ""
        | Flow.Rt _ -> oracle (k ^ ": flow_invariants") (Oracle.flow_invariants s.Synth_cold.stg)
      end)
    flows;
  List.iter
    (fun n ->
      let text key =
        flow_text (List.assoc key (List.map (fun ((s : Synth_cold.spec), r) -> (s.Synth_cold.key, r)) flows))
      in
      verdict
        (Printf.sprintf "ring%d: explicit and symbolic reports are byte-equal" n)
        (text (Printf.sprintf "ring%d/rt/auto" n)
        = text (Printf.sprintf "ring%d/rt/symbolic" n))
        "")
    [ 6; 8 ];
  matches_committed "synth_cold"
    (List.map (fun ((s : Synth_cold.spec), r) -> (s.Synth_cold.key, flow_text r)) flows)

let validate_edit_loop () =
  List.iter
    (fun n ->
      List.iter
        (fun e ->
          oracle
            (Printf.sprintf "ring%d %s: diff_incremental" n (Edit_loop.edit_name e))
            (Oracle.diff_incremental (Rtcad_stg.Library.ring n) [ e ]))
        Edit_loop.catalogue)
    Edit_loop.rings;
  matches_committed "edit_loop" (edit_loop ())

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* EXPERIMENTS.md, Table 2: worst / avg delay (ps), energy (pJ),
   transistors, measured at 200 cycles. *)
let table2_rows =
  [
    ("SI", 1376, 903, 31.3, 26);
    ("RT-BM", 980, 605, 27.5, 24);
    ("RT", 778, 545, 17.0, 26);
    ("Pulse", 296, 296, 16.8, 15);
  ]

let validate_sim_stream () =
  let golden = String.trim (read_file "test/golden/rappid.summary.json") in
  let farm = R.run_farm ~shards:1 ~seed:7 W.typical ~instructions:20_000 in
  verdict "rappid: 1-shard stream of seed 7 equals the golden summary"
    (String.trim (R.summary_json farm.R.f_stats.R.s_result) = golden)
    "";
  let rows = Table2.all ~cycles:200 () in
  List.iter
    (fun (name, worst, avg, energy, trans) ->
      match List.find_opt (fun (r : Table2.row) -> r.Table2.name = name) rows with
      | None -> verdict ("table2 " ^ name) false "row missing"
      | Some r ->
        verdict
          (Printf.sprintf "table2 %s at 200 cycles matches EXPERIMENTS.md" name)
          (Float.round r.Table2.worst_delay_ps = float_of_int worst
          && Float.round r.Table2.avg_delay_ps = float_of_int avg
          && Float.abs (r.Table2.energy_per_cycle_pj -. energy) < 0.05
          && r.Table2.transistors = trans)
          (Format.asprintf "%a" Table2.pp_row r))
    table2_rows;
  (* The benchmark's own stimulus is the one Table 2 measures with. *)
  List.iter
    (fun (var : Sim_stream.variant) ->
      let v = var.Sim_stream.v in
      let m = Sim_stream.measure ~cycles:200 var in
      let row = List.find (fun (r : Table2.row) -> r.Table2.name = v.Fifo_impls.name) rows in
      let env = Table2.env_for v in
      let env_cycle = 2.0 *. (env.Harness.left_delay_ps +. (env.Harness.jitter /. 2.0)) in
      let worst =
        match var.Sim_stream.period_ps with
        | Some p -> p
        | None -> m.Harness.worst_delay_ps -. env_cycle
      in
      verdict
        (Printf.sprintf "%s: benchmark stimulus reproduces the Table 2 row" v.Fifo_impls.name)
        (worst = row.Table2.worst_delay_ps
        && m.Harness.energy_per_cycle_pj = row.Table2.energy_per_cycle_pj)
        "")
    (Sim_stream.variants ());
  matches_committed "sim_stream" (Sim_stream.all_outputs ())

let validate () =
  validate_synth_cold ();
  validate_edit_loop ();
  matches_committed "serve_mix" (serve_mix ());
  validate_sim_stream ();
  Printf.printf "%d failure(s)\n" !failures;
  if !failures = 0 then 0 else 1
