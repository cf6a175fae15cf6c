(* Parallel/serial equivalence: every parallel kernel must produce
   bit-identical results whatever the job count, or the determinism
   guarantees (and the differential oracles built on them) are void.
   [par_threshold:2] forces the parallel state-graph machinery even on
   the small library graphs, so these tests exercise the sharded table,
   the level-synchronous expansion and the canonical renumbering for
   real — not just the serial warm-up. *)

module Bitset = Rtcad_util.Bitset
module Par = Rtcad_par.Par
module Stg = Rtcad_stg.Stg
module Library = Rtcad_stg.Library
module Transform = Rtcad_stg.Transform
module Sg = Rtcad_sg.Sg
module Csc = Rtcad_sg.Csc
module Engine = Rtcad_sg.Engine
module Flow = Rtcad_core.Flow
module Fuzz = Rtcad_check.Fuzz

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Run [f] with the job count forced to [n], restoring the previous
   effective count afterwards so later suites see their configured
   parallelism. *)
let with_jobs n f =
  let prev = Par.jobs () in
  Par.set_jobs n;
  Fun.protect ~finally:(fun () -> Par.set_jobs prev) f

let job_counts = [ 1; 2; 4 ]

(* --- the pool itself --- *)

let test_parallel_for_covers () =
  with_jobs 4 (fun () ->
      let n = 1000 in
      let hits = Array.make n 0 in
      (* Each index is claimed by exactly one chunk, so unsynchronized
         increments of distinct cells are safe. *)
      Par.parallel_for n (fun i -> hits.(i) <- hits.(i) + 1);
      check "every index exactly once" true (Array.for_all (( = ) 1) hits))

let test_map_array_order () =
  with_jobs 4 (fun () ->
      let a = Array.init 500 (fun i -> i) in
      check "matches Array.map" true
        (Par.map_array (fun x -> (x * 7) mod 13) a = Array.map (fun x -> (x * 7) mod 13) a))

let test_map_array_exception () =
  (* The lowest-index exception must escape, matching Array.map's
     left-to-right semantics. *)
  with_jobs 4 (fun () ->
      let a = Array.init 100 (fun i -> i) in
      check "lowest-index failure wins" true
        (try
           ignore
             (Par.map_array ~chunk:1 (fun x -> if x >= 30 then failwith (string_of_int x) else x) a);
           false
         with Failure s -> s = "30"))

let test_set_jobs_rejects () =
  let rejects n =
    try
      Par.set_jobs n;
      false
    with Invalid_argument _ -> true
  in
  check "0 rejected" true (rejects 0);
  check "negative rejected" true (rejects (-3))

let test_nested_runs_serial () =
  with_jobs 4 (fun () ->
      check "not in region outside" false (Par.in_parallel_region ());
      let inner_counts = Par.map_list (fun _ ->
          (* Inside a region every participant must observe the busy
             flag and refuse to fan out again. *)
          let nested = ref (-1) in
          Par.run_workers (fun ~index:_ ~count -> nested := count);
          (Par.in_parallel_region (), !nested))
          [ 1; 2; 3; 4; 5; 6; 7; 8 ]
      in
      check "all nested regions serial" true
        (List.for_all (fun (busy, count) -> busy && count = 1) inner_counts))

(* --- state graphs --- *)

let sg_equal a b =
  Sg.num_states a = Sg.num_states b
  && Sg.initial a = Sg.initial b
  && List.for_all
       (fun s ->
         Bitset.equal (Sg.marking a s) (Sg.marking b s)
         && Bitset.equal (Sg.code a s) (Sg.code b s)
         && Sg.succs a s = Sg.succs b s
         && Sg.preds a s = Sg.preds b s)
       (List.init (Sg.num_states a) Fun.id)

let specs () =
  ("ring5", Library.ring 5) :: ("ring7", Library.ring 7) :: Library.all_named ()

let test_sg_equivalence () =
  List.iter
    (fun (name, stg) ->
      let reference = with_jobs 1 (fun () -> Sg.build stg) in
      List.iter
        (fun jobs ->
          let forced =
            with_jobs jobs (fun () -> Sg.build ~par_threshold:2 stg)
          in
          check (Printf.sprintf "%s identical (jobs=%d, forced)" name jobs) true
            (sg_equal reference forced);
          let default = with_jobs jobs (fun () -> Sg.build stg) in
          check (Printf.sprintf "%s identical (jobs=%d)" name jobs) true
            (sg_equal reference default))
        job_counts)
    (specs ())

let test_sg_failures_deterministic () =
  (* a+ twice in a row: the serial failure message must survive the
     parallel path's serial-rerun fallback. *)
  let b = Stg.Build.create () in
  Stg.Build.signal b Stg.Input "a";
  Stg.Build.connect b "a+" "a+/2";
  Stg.Build.connect b "a+/2" "a+";
  Stg.Build.mark_between b "a+/2" "a+";
  let stg = Stg.Build.finish b in
  let failure jobs =
    with_jobs jobs (fun () ->
        try
          ignore (Sg.build ~par_threshold:2 stg);
          None
        with Sg.Inconsistent msg -> Some msg)
  in
  let reference = failure 1 in
  check "failure raised" true (reference <> None);
  List.iter
    (fun jobs -> check (Printf.sprintf "same failure at jobs=%d" jobs) true (failure jobs = reference))
    job_counts;
  let too_large jobs =
    with_jobs jobs (fun () ->
        try
          ignore (Sg.build ~max_states:40 ~par_threshold:2 (Library.ring 5));
          None
        with Sg.Too_large n -> Some n)
  in
  check "bound failure raised" true (too_large 1 = Some 40);
  List.iter
    (fun jobs ->
      check (Printf.sprintf "same bound failure at jobs=%d" jobs) true (too_large jobs = Some 40))
    job_counts

(* --- CSC resolution --- *)

let test_csc_equivalence () =
  let stg = Transform.contract_dummies (Library.fifo ()) in
  let resolve jobs =
    with_jobs jobs (fun () ->
        match Csc.resolve ~mode:Csc.Speed_independent Engine.explicit stg with
        | None -> None
        | Some (_, ins) -> Some ins)
  in
  let reference = resolve 1 in
  check "an insertion was chosen" true (reference <> None);
  List.iter
    (fun jobs ->
      check (Printf.sprintf "same insertion at jobs=%d" jobs) true (resolve jobs = reference))
    job_counts

(* --- the synthesis flow --- *)

let test_flow_equivalence () =
  List.iter
    (fun (name, stg) ->
      let report jobs =
        with_jobs jobs (fun () -> Format.asprintf "%a" Flow.pp_report (Flow.synthesize stg))
      in
      let reference = report 1 in
      List.iter
        (fun jobs ->
          check (Printf.sprintf "%s netlist identical at jobs=%d" name jobs) true
            (report jobs = reference))
        job_counts)
    (Library.all_named ())

(* --- fuzzing --- *)

let test_fuzz_equivalence () =
  let config = { Fuzz.default with seed = 3; cases = 30 } in
  let run jobs = with_jobs jobs (fun () -> Fuzz.run config) in
  let reference = run 1 in
  check_int "campaign ran all cases" 30 reference.Fuzz.ran;
  List.iter
    (fun jobs ->
      check (Printf.sprintf "same verdict at jobs=%d" jobs) true (run jobs = reference))
    job_counts

(* An emulated kernel bug (dropped state in the fast summary) must be
   caught on the same case, shrunk to the same minimal plan and rendered
   to the same [.g] text at every job count — the serial campaign stops
   at its first failure, so the parallel one must report the lowest
   failing case, not whichever its scheduler hit first. *)
let broken_fast_sg stg =
  match Rtcad_check.Oracle.fast_sg_result stg with
  | Rtcad_check.Ref_sg.Summary s ->
    Rtcad_check.Ref_sg.Summary
      {
        s with
        Rtcad_check.Ref_sg.num_states = s.Rtcad_check.Ref_sg.num_states - 1;
        codes = (match s.Rtcad_check.Ref_sg.codes with [] -> [] | _ :: rest -> rest);
      }
  | r -> r

let test_fuzz_failure_equivalence () =
  let config = { Fuzz.default with seed = 1; cases = 50 } in
  let run jobs = with_jobs jobs (fun () -> Fuzz.run ~fast_sg:broken_fast_sg config) in
  let reference = run 1 in
  check "emulated bug caught" true (reference.Fuzz.failure <> None);
  List.iter
    (fun jobs ->
      check (Printf.sprintf "same witness at jobs=%d" jobs) true (run jobs = reference))
    job_counts

(* --- observability under parallelism --- *)

module Obs = Rtcad_obs.Obs

(* Run [work] with recording enabled at job count [n] and return the
   merged snapshot's metrics. *)
let metrics_at_jobs n work =
  with_jobs n (fun () ->
      Obs.set_enabled true;
      Fun.protect
        ~finally:(fun () -> Obs.set_enabled false)
        (fun () ->
          work ();
          (Obs.snapshot ()).Obs.metrics))

let test_obs_merge_deterministic () =
  (* Synthetic fan-out: each index contributes known counter and
     histogram increments from whichever domain claims it.  The merged
     totals must be the closed-form sums at every job count — per-worker
     stores merged in index order, counters and histograms summing. *)
  let work () =
    Par.parallel_for ~chunk:1 64 (fun i ->
        Obs.incr "merge.count";
        Obs.incr ~by:i "merge.weighted";
        Obs.observe "merge.hist" (float_of_int (i mod 7)))
  in
  let expect =
    [ ("merge.count", 64); ("merge.weighted", 64 * 63 / 2) ]
  in
  List.iter
    (fun n ->
      let ms = metrics_at_jobs n work in
      List.iter
        (fun (name, total) ->
          check
            (Printf.sprintf "%s sums to %d at jobs %d" name total n)
            true
            (List.assoc name ms = Obs.Count total))
        expect;
      match List.assoc "merge.hist" ms with
      | Obs.Hist_v { count = 64; _ } -> ()
      | _ -> Alcotest.fail "histogram count must be 64 at any job count")
    job_counts

let test_obs_snapshots_equal_across_jobs () =
  (* End to end: instrumented kernels (Sg.build counters, fuzz counters)
     must merge to identical metric lists at jobs 1, 2 and 4.  Gauges and
     histograms participate; only wall-clock span durations may differ,
     and those are not in [metrics]. *)
  let work () =
    let stg = Transform.contract_dummies (Library.fifo ()) in
    ignore (Sg.build ~par_threshold:2 stg);
    ignore
      (Fuzz.run ~log:ignore { Fuzz.default with Fuzz.cases = 16; seed = 5 })
  in
  let deterministic ms =
    (* Throughput gauges are wall-clock-derived; everything else must be
       bit-identical across job counts. *)
    List.filter (fun (_, v) -> match v with Obs.Gauge_v _ -> false | _ -> true) ms
  in
  match List.map (fun n -> deterministic (metrics_at_jobs n work)) job_counts with
  | [] -> assert false
  | reference :: rest ->
    check "metrics exist" true (reference <> []);
    List.iteri
      (fun i ms ->
        check
          (Printf.sprintf "metrics at jobs %d match jobs 1" (List.nth job_counts (i + 1)))
          true (ms = reference))
      rest

let suite =
  [
    ( "par",
      [
        Alcotest.test_case "parallel_for covers every index" `Quick test_parallel_for_covers;
        Alcotest.test_case "map_array preserves order" `Quick test_map_array_order;
        Alcotest.test_case "map_array re-raises lowest index" `Quick test_map_array_exception;
        Alcotest.test_case "set_jobs rejects non-positive" `Quick test_set_jobs_rejects;
        Alcotest.test_case "nested regions run serial" `Quick test_nested_runs_serial;
        Alcotest.test_case "sg builds are jobs-invariant" `Quick test_sg_equivalence;
        Alcotest.test_case "sg failures are jobs-invariant" `Quick test_sg_failures_deterministic;
        Alcotest.test_case "csc choice is jobs-invariant" `Quick test_csc_equivalence;
        Alcotest.test_case "synthesis flow is jobs-invariant" `Quick test_flow_equivalence;
        Alcotest.test_case "fuzz verdicts are jobs-invariant" `Quick test_fuzz_equivalence;
        Alcotest.test_case "fuzz failure witness is jobs-invariant" `Quick
          test_fuzz_failure_equivalence;
        Alcotest.test_case "obs merge is deterministic" `Quick
          test_obs_merge_deterministic;
        Alcotest.test_case "obs snapshots are jobs-invariant" `Quick
          test_obs_snapshots_equal_across_jobs;
      ] );
  ]
