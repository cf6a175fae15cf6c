(* Observability layer: VCD writer/reader round-trips, metric recording
   semantics, and the sink contracts the CLI relies on. *)

module Obs = Rtcad_obs.Obs
module Vcd = Rtcad_obs.Vcd

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Recording is process-global; every test that enables it must leave it
   disabled so unrelated suites stay on the zero-cost path. *)
let with_obs f =
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

(* --- VCD writer basics --- *)

let test_vcd_writer_basics () =
  let w = Vcd.create () in
  let a = Vcd.add_signal w "a" in
  let b = Vcd.add_signal w ~initial:true "b" in
  Vcd.change w ~time:5 a true;
  Vcd.change w ~time:5 b false;
  Vcd.change w ~time:9 a true (* redundant: dropped *);
  Vcd.change w ~time:12 a false;
  check_int "deduplicated change count" 3 (Vcd.num_changes w);
  let r = Vcd.parse (Vcd.contents w) in
  check_int "two declared signals" 2 (List.length r.Vcd.vars);
  check "initial block covers both" true (List.length r.Vcd.initial = 2);
  check_int "two time steps" 2 (List.length r.Vcd.steps);
  check "timescale survives" true (r.Vcd.r_timescale = "1 fs")

let test_vcd_writer_rejects () =
  let w = Vcd.create () in
  let a = Vcd.add_signal w "a" in
  Vcd.change w ~time:10 a true;
  check "non-monotone time rejected" true
    (try
       Vcd.change w ~time:9 a false;
       false
     with Invalid_argument _ -> true);
  check "declaration after first change rejected" true
    (try
       ignore (Vcd.add_signal w "late");
       false
     with Invalid_argument _ -> true);
  check "unknown signal rejected" true
    (try
       Vcd.change w ~time:11 99 true;
       false
     with Invalid_argument _ -> true)

let test_vcd_name_sanitized () =
  let w = Vcd.create () in
  ignore (Vcd.add_signal w "a b\tc");
  let r = Vcd.parse (Vcd.contents w) in
  check "whitespace replaced" true (List.exists (fun (_, n) -> n = "a_b_c") r.Vcd.vars)

(* --- VCD round-trip property ---

   A random dump: up to 6 signals with random initial values, then a
   random walk of (time-increment, signal, value) writes.  The writer may
   drop any individual write as redundant; the parsed dump must still be
   monotone, declared-before-used, change-only, and replay to exactly the
   final values an independent model of the walk predicts. *)

type walk = { nsig : int; inits : bool list; writes : (int * int * bool) list }

let gen_walk =
  QCheck.Gen.(
    (1 -- 6) >>= fun nsig ->
    list_repeat nsig bool >>= fun inits ->
    (0 -- 40) >>= fun steps ->
    list_repeat steps (triple (0 -- 3) (0 -- (nsig - 1)) bool) >>= fun writes ->
    return { nsig; inits; writes })

let print_walk wk =
  Printf.sprintf "{nsig=%d; writes=%s}" wk.nsig
    (String.concat ";"
       (List.map (fun (dt, s, v) -> Printf.sprintf "(+%d,%d,%b)" dt s v) wk.writes))

let arb_walk = QCheck.make ~print:print_walk gen_walk

let build_walk wk =
  let w = Vcd.create () in
  let sigs =
    List.mapi (fun i init -> Vcd.add_signal w ~initial:init (Printf.sprintf "s%d" i)) wk.inits
  in
  let model = Array.of_list wk.inits in
  let now = ref 0 in
  List.iter
    (fun (dt, s, v) ->
      now := !now + dt;
      Vcd.change w ~time:!now (List.nth sigs s) v;
      model.(s) <- v)
    wk.writes;
  (w, model)

let prop_vcd_roundtrip =
  QCheck.Test.make ~name:"vcd round-trips through its parser" ~count:300 arb_walk
    (fun wk ->
      let w, model = build_walk wk in
      let r = Vcd.parse (Vcd.contents w) in
      (* Every id used in the stream was declared in the header. *)
      let declared = List.map fst r.Vcd.vars in
      List.for_all (fun (id, _) -> List.mem id declared) r.Vcd.initial
      && List.for_all
           (fun (_, id, _) -> List.mem id declared)
           (Vcd.changes r)
      (* Timestamps strictly increase across steps. *)
      && (let rec mono = function
            | (t1, _) :: ((t2, _) :: _ as rest) -> t1 < t2 && mono rest
            | _ -> true
          in
          mono r.Vcd.steps)
      (* Change-only: replaying from the initial block, every recorded
         change flips the signal's value. *)
      && (let state = Hashtbl.create 8 in
          List.iter (fun (id, v) -> Hashtbl.replace state id v) r.Vcd.initial;
          List.for_all
            (fun (_, id, v) ->
              let old = Hashtbl.find state id in
              Hashtbl.replace state id v;
              old <> v)
            (Vcd.changes r)
          (* ...and the replayed final state matches the walk's model.
             Id codes are single ascending ASCII characters for the first
             94 signals, so sorting vars by id recovers declaration
             order. *)
          && List.for_all2
               (fun (id, _) expected -> Hashtbl.find state id = expected)
               (List.sort compare r.Vcd.vars)
               (Array.to_list model)))

(* --- metrics --- *)

let test_disabled_records_nothing () =
  Obs.set_enabled false;
  Obs.incr "ghost";
  Obs.observe "ghost_h" 3.0;
  Obs.set_gauge "ghost_g" 1.0;
  ignore (Obs.span "ghost_span" (fun () -> 42));
  with_obs (fun () ->
      let snap = Obs.snapshot () in
      check "no metrics leak from disabled recording" true (snap.Obs.metrics = []);
      check "no spans either" true (snap.Obs.span_aggs = []))

let test_counters_and_snapshot () =
  with_obs (fun () ->
      Obs.incr "a";
      Obs.incr ~by:4 "a";
      Obs.set_gauge "g" 2.5;
      Obs.observe "h" 3.0;
      Obs.observe "h" 30.0;
      let v = Obs.span "s" (fun () -> 7) in
      check_int "span passes the value through" 7 v;
      let snap = Obs.snapshot () in
      check "counter summed" true (List.assoc "a" snap.Obs.metrics = Obs.Count 5);
      check "gauge kept" true (List.assoc "g" snap.Obs.metrics = Obs.Gauge_v 2.5);
      (match List.assoc "h" snap.Obs.metrics with
      | Obs.Hist_v { count; sum; _ } ->
        check_int "hist count" 2 count;
        check "hist sum" true (sum = 33.0)
      | _ -> Alcotest.fail "expected a histogram");
      match snap.Obs.span_aggs with
      | [ { Obs.name = "s"; calls = 1; _ } ] -> ()
      | _ -> Alcotest.fail "expected exactly one span aggregate")

let test_kind_mismatch () =
  with_obs (fun () ->
      Obs.incr "k";
      check "gauge write to a counter rejected" true
        (try
           Obs.set_gauge "k" 1.0;
           false
         with Invalid_argument _ -> true))

let test_reset_on_reenable () =
  with_obs (fun () -> Obs.incr "old");
  with_obs (fun () ->
      check "re-enabling starts a fresh session" true
        ((Obs.snapshot ()).Obs.metrics = []))

let test_span_survives_exception () =
  with_obs (fun () ->
      (try Obs.span "boom" (fun () -> failwith "x") with Failure _ -> ());
      let snap = Obs.snapshot () in
      check "span recorded despite the exception" true
        (List.exists (fun a -> a.Obs.name = "boom") snap.Obs.span_aggs))

let test_timed () =
  let busy () =
    Unix.sleepf 0.002;
    7
  in
  Obs.set_enabled false;
  let v, ms = Obs.timed "t" busy in
  check_int "off: value passed through" 7 v;
  check "off: elapsed time measured" true (ms >= 2.0);
  with_obs (fun () ->
      check "off: nothing recorded" true ((Obs.snapshot ()).Obs.events = []);
      let v, ms = Obs.timed "t" busy in
      check_int "on: value passed through" 7 v;
      match (Obs.snapshot ()).Obs.events with
      | [ (_, e) ] ->
        check "on: the span is named" true (e.Obs.sp_name = "t");
        check "on: elapsed covers the span" true (ms >= e.Obs.sp_dur_ms && ms >= 2.0)
      | _ -> Alcotest.fail "expected exactly one span")

(* --- sinks --- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_summary_json_normalised () =
  with_obs (fun () ->
      Obs.incr ~by:3 "n";
      ignore (Obs.span "p" (fun () -> ()));
      let snap = Obs.snapshot () in
      let j = Obs.summary_json ~normalised:true snap in
      check "normalised jobs pinned to 0" true (contains j "\"jobs\": 0");
      check "normalised wall_ms pinned to 0" true (contains j "\"wall_ms\": 0"))

(* --- histogram percentiles --- *)

let check_float = Alcotest.(check (float 1e-9))

let dense () = Array.make (Array.length Obs.hist_bounds + 1) 0

(* Same 1-2-5 bucketing rule the recorder uses: first bound >= v. *)
let bucket_of v =
  let b = Obs.hist_bounds in
  let n = Array.length b in
  let rec go i = if i >= n || v <= b.(i) then i else go (i + 1) in
  go 0

let test_percentile_of_buckets () =
  let counts = dense () in
  check_float "empty histogram" 0.0 (Obs.percentile_of_buckets ~counts 50.0);
  (* 10 observations in the (2, 5] bucket: p50 interpolates to rank 5 of
     10 across the bucket's width. *)
  counts.(2) <- 10;
  check_float "single bucket p50" (2.0 +. (3.0 *. 0.5))
    (Obs.percentile_of_buckets ~counts 50.0);
  check_float "single bucket p100 hits upper edge" 5.0
    (Obs.percentile_of_buckets ~counts 100.0);
  (* Split 90/10 across (2,5] and (5,10]: p95 lands in the second. *)
  let counts = dense () in
  counts.(2) <- 90;
  counts.(3) <- 10;
  check "p95 in upper bucket" true
    (let p = Obs.percentile_of_buckets ~counts 95.0 in
     p > 5.0 && p <= 10.0);
  check "p50 in lower bucket" true
    (let p = Obs.percentile_of_buckets ~counts 50.0 in
     p > 2.0 && p <= 5.0)

let test_percentile_overflow_and_bounds () =
  let counts = dense () in
  counts.(Array.length counts - 1) <- 3;
  check "overflow bucket is unbounded" true
    (Obs.percentile_of_buckets ~counts 99.0 = infinity);
  check "rejects short counts" true
    (try
       ignore (Obs.percentile_of_buckets ~counts:[| 1 |] 50.0);
       false
     with Invalid_argument _ -> true);
  check "rejects p > 100" true
    (try
       ignore (Obs.percentile_of_buckets ~counts 101.0);
       false
     with Invalid_argument _ -> true)

let test_observe_buckets_merges () =
  with_obs (fun () ->
      (* A bulk-merged histogram must be indistinguishable from the same
         observations recorded one at a time. *)
      Obs.observe "ob_seq" 3.0;
      Obs.observe "ob_seq" 3.0;
      Obs.observe "ob_seq" 700.0;
      let counts = dense () in
      counts.(bucket_of 3.0) <- 2;
      counts.(bucket_of 700.0) <- 1;
      Obs.observe_buckets "ob_bulk" ~counts ~sum:706.0;
      let snap = Obs.snapshot () in
      let v n = List.assoc n snap.Obs.metrics in
      check "bulk = sequential" true (v "ob_bulk" = v "ob_seq");
      match (Obs.percentile (v "ob_bulk") 50.0, Obs.percentile (v "ob_seq") 50.0) with
      | Some a, Some b -> check_float "same p50" b a
      | _ -> Alcotest.fail "expected histogram percentiles")

let test_write_file_failure_leaves_nothing () =
  let path = "/nonexistent-rtcad-dir/out.json" in
  (match Obs.write_file ~path "data" with
  | Ok () -> Alcotest.fail "write into a missing directory must fail"
  | Error msg -> check "error message names the path" true (msg <> ""));
  check "no partial file" true (not (Sys.file_exists path))

let test_write_file_roundtrip () =
  let path = Filename.temp_file "rtcad_obs" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (match Obs.write_file ~path "payload" with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      let ic = open_in path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      check "payload written verbatim" true (s = "payload"))

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "vcd writer basics" `Quick test_vcd_writer_basics;
        Alcotest.test_case "vcd writer rejects" `Quick test_vcd_writer_rejects;
        Alcotest.test_case "vcd names sanitized" `Quick test_vcd_name_sanitized;
        QCheck_alcotest.to_alcotest prop_vcd_roundtrip;
        Alcotest.test_case "disabled records nothing" `Quick test_disabled_records_nothing;
        Alcotest.test_case "counters and snapshot" `Quick test_counters_and_snapshot;
        Alcotest.test_case "metric kind mismatch" `Quick test_kind_mismatch;
        Alcotest.test_case "reset on re-enable" `Quick test_reset_on_reenable;
        Alcotest.test_case "span survives exception" `Quick test_span_survives_exception;
        Alcotest.test_case "timed measures, records only when on" `Quick test_timed;
        Alcotest.test_case "summary json normalised" `Quick test_summary_json_normalised;
        Alcotest.test_case "bucket percentiles" `Quick test_percentile_of_buckets;
        Alcotest.test_case "percentile edge cases" `Quick
          test_percentile_overflow_and_bounds;
        Alcotest.test_case "bulk observe merges" `Quick test_observe_buckets_merges;
        Alcotest.test_case "sink failure leaves nothing" `Quick
          test_write_file_failure_leaves_nothing;
        Alcotest.test_case "sink write round-trip" `Quick test_write_file_roundtrip;
      ] );
  ]
