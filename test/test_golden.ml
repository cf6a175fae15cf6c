(* Golden-trace regression corpus.

   Each case replays a pinned scenario — the four Table-2 FIFO
   controllers under their measurement environments, and one RAPPID
   decode run — and compares the produced artifacts byte-for-byte
   against committed snapshots:

   - the full VCD waveform of the simulation (the netlist simulator is
     serial and femtosecond-exact, so dumps are identical at any job
     count and on any machine);
   - the normalised observability summary (job count and wall-clock
     fields pinned to 0; every remaining metric is deterministic).

   A mismatch means an intentional behaviour change or a regression in
   the simulator, the harness or the metrics pipeline.  To re-bless
   after an intentional change run `make golden-update` and review the
   diff like any other code change.

   Environment:
     RTCAD_GOLDEN_DIR    where snapshots live (default: ./golden next to
                         the test binary, i.e. test/golden in the tree)
     RTCAD_UPDATE_GOLDEN =1 rewrites snapshots instead of comparing *)

module Obs = Rtcad_obs.Obs
module Vcd = Rtcad_obs.Vcd
module Harness = Rtcad_core.Harness
module Table2 = Rtcad_core.Table2
module Fifo_impls = Rtcad_core.Fifo_impls
module Rappid = Rtcad_rappid.Rappid
module Workload = Rtcad_rappid.Workload

let updating () = Sys.getenv_opt "RTCAD_UPDATE_GOLDEN" = Some "1"

let golden_dir () =
  match Sys.getenv_opt "RTCAD_GOLDEN_DIR" with
  | Some d when d <> "" -> d
  | _ -> (
    match List.find_opt Sys.file_exists [ "golden"; "test/golden" ] with
    | Some d -> d
    | None -> "golden")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_golden name data =
  let path = Filename.concat (golden_dir ()) name in
  if updating () then (
    match Obs.write_file ~path data with
    | Ok () -> Printf.printf "golden: wrote %s (%d bytes)\n%!" path (String.length data)
    | Error msg -> Alcotest.failf "cannot update golden %s: %s" path msg)
  else
    match read_file path with
    | exception Sys_error _ ->
      Alcotest.failf "missing golden snapshot %s — run `make golden-update`" path
    | expected ->
      if String.equal expected data then ()
      else
        (* Point at the first divergence instead of dumping both blobs. *)
        let n = min (String.length expected) (String.length data) in
        let rec first_diff i = if i < n && expected.[i] = data.[i] then first_diff (i + 1) else i in
        let i = first_diff 0 in
        let ctx s =
          let lo = max 0 (i - 40) in
          String.sub s lo (min 80 (String.length s - lo))
        in
        Alcotest.failf
          "%s diverges from its golden snapshot at byte %d (lengths %d vs %d)@.golden:  \
           %S@.fresh:   %S@.Run `make golden-update` if the change is intentional."
          name i (String.length expected) (String.length data) (ctx expected) (ctx data)

(* Recording is enabled only around the measurement itself: the variant
   is synthesized first, so the summary holds the simulation's metrics,
   not the synthesis search's. *)
let fifo_case slug build () =
  let v = build () in
  Obs.set_enabled true;
  let w, summary =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled false)
      (fun () ->
        let w = Vcd.create () in
        let _m =
          if v.Fifo_impls.pulse then
            Harness.measure_pulse ~vcd:w ~cycles:12 v.Fifo_impls.netlist
          else
            Harness.measure_fourphase ~env:(Table2.env_for v) ~vcd:w ~cycles:12
              v.Fifo_impls.netlist
        in
        (w, Obs.summary_json ~normalised:true (Obs.snapshot ())))
  in
  check_golden (slug ^ ".vcd") (Vcd.contents w);
  check_golden (slug ^ ".summary.json") summary;
  (* Every golden dump must stay within the dialect the round-trip
     parser accepts. *)
  let r = Vcd.parse (Vcd.contents w) in
  Alcotest.(check bool) "golden VCD parses" true (List.length r.Vcd.vars > 0)

let rappid_case () =
  let stream = Workload.generate ~seed:7 Workload.typical ~instructions:20_000 in
  let r = Rappid.run stream in
  check_golden "rappid.summary.json" (Rappid.summary_json r)

(* --- the same corpus, replayed through the synthesis server ---

   Each golden scenario is also issued as an NDJSON request against the
   serving layer: the response must embed byte-for-byte the same VCD and
   the same normalised summary the direct harness produced.  This pins
   the server's per-request capture (and its cached replays) to the
   corpus: a serving-layer regression that perturbs measurement order or
   observability would surface here as a byte diff. *)

module Serve = Rtcad_serve.Serve
module Json = Rtcad_serve.Json

let serve_one ?(obs = false) request =
  let cfg = Serve.default_config () in
  let cfg =
    if obs then { cfg with Serve.obs_mode = Serve.Obs_normalised } else cfg
  in
  match Serve.run_lines cfg [ request ] with
  | [ line ] ->
    let j = Json.parse line in
    if Json.member "ok" j <> Some (Json.Bool true) then
      Alcotest.failf "serve replay failed: %s" line;
    j
  | other -> Alcotest.failf "expected one response, got %d" (List.length other)

let serve_str j path =
  match
    List.fold_left (fun acc name -> Option.bind acc (Json.member name)) (Some j) path
  with
  | Some (Json.String s) -> s
  | _ -> Alcotest.failf "response lacks string field %s" (String.concat "." path)

let serve_fifo_case slug circuit () =
  let request =
    Printf.sprintf {|{"op":"sim","circuit":%S,"cycles":12,"vcd":true}|} circuit
  in
  let j = serve_one ~obs:true request in
  check_golden (slug ^ ".vcd") (serve_str j [ "result"; "vcd" ]);
  check_golden (slug ^ ".summary.json") (serve_str j [ "obs" ]);
  (* The cached replay of the same request must serve identical bytes. *)
  let cfg = { (Serve.default_config ()) with Serve.obs_mode = Serve.Obs_normalised } in
  match Serve.run_lines cfg [ request; request ] with
  | [ miss; hit ] ->
    let strip l = Json.to_string (Option.get (Json.member "result" (Json.parse l))) in
    Alcotest.(check string) "cached replay byte-identical" (strip miss) (strip hit)
  | _ -> Alcotest.fail "expected two responses"

let serve_rappid_case () =
  let j = serve_one {|{"op":"sim","circuit":"rappid","instructions":20000,"seed":7}|} in
  check_golden "rappid.summary.json" (serve_str j [ "result"; "summary_json" ])

let suite =
  [
    ( "golden",
      [
        Alcotest.test_case "fifo si" `Slow (fifo_case "fifo_si" Fifo_impls.speed_independent);
        Alcotest.test_case "fifo rt-bm" `Slow (fifo_case "fifo_rt_bm" Fifo_impls.burst_mode);
        Alcotest.test_case "fifo rt" `Slow (fifo_case "fifo_rt" Fifo_impls.relative_timing);
        Alcotest.test_case "fifo pulse" `Slow (fifo_case "fifo_pulse" Fifo_impls.pulse_mode);
        Alcotest.test_case "rappid" `Slow rappid_case;
        Alcotest.test_case "serve: fifo si" `Slow (serve_fifo_case "fifo_si" "si");
        Alcotest.test_case "serve: fifo rt-bm" `Slow (serve_fifo_case "fifo_rt_bm" "rt-bm");
        Alcotest.test_case "serve: fifo rt" `Slow (serve_fifo_case "fifo_rt" "rt");
        Alcotest.test_case "serve: fifo pulse" `Slow (serve_fifo_case "fifo_pulse" "pulse");
        Alcotest.test_case "serve: rappid" `Slow serve_rappid_case;
      ] );
  ]
