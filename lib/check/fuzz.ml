module Rng = Rtcad_util.Rng
module Bdd = Rtcad_logic.Bdd
module Par = Rtcad_par.Par
module Obs = Rtcad_obs.Obs
module Stg = Rtcad_stg.Stg
module Stg_io = Rtcad_stg.Stg_io

type config = {
  seed : int;
  cases : int;
  max_places : int;
  shrink : bool;
  edits : int;
}

let default = { seed = 1; cases = 100; max_places = 14; shrink = true; edits = 0 }

type failure = {
  case : int;
  case_seed : int;
  finding : Oracle.finding;
  plan : Gen.plan option;
  edits : Gen.edit list;
  g_text : string option;
}

type outcome = {
  ran : int;
  passed : int;
  skipped : int;
  failure : failure option;
}

let case_seed config i = (config.seed * 1_000_003) + i

(* A crash inside a kernel is a finding, not a fuzzer error. *)
let guarded oracle f =
  try f ()
  with e ->
    Oracle.Fail { oracle; detail = "uncaught exception: " ^ Printexc.to_string e }

(* Flow synthesis is much heavier than reachability, so only close the
   Figure-2 loop on small specifications. *)
let flow_budget = 10

(* A specification with no state graph has nothing for the assumption
   oracle to compare; its skip does not make the case a skip. *)
let check_plan ~fast_sg plan =
  guarded "plan" (fun () ->
      let stg = Gen.stg_of_plan plan in
      match Oracle.diff_sg ~fast:fast_sg stg with
      | Oracle.Pass -> (
        match Oracle.diff_assumptions ~seed:1 stg with
        | Oracle.Fail _ as v -> v
        | Oracle.Pass | Oracle.Skip _ ->
          if Gen.places_of_plan plan <= flow_budget then Oracle.flow_invariants stg
          else Oracle.Pass)
      | v -> v)

let check_edits ~engine (c : Gen.edit_case) =
  guarded "incremental" (fun () ->
      Oracle.diff_incremental ~engine (Gen.stg_of_plan c.Gen.base) c.Gen.edits)

let is_fail = function Oracle.Fail _ -> true | _ -> false

(* Shrink ladders revisit the same candidate from several parents;
   memoizing on the (structural) candidate means each distinct plan or
   edit case is synthesized at most once per shrink session. *)
let memoized check =
  let seen = Hashtbl.create 64 in
  fun x ->
    match Hashtbl.find_opt seen x with
    | Some v -> v
    | None ->
      let v = check x in
      Hashtbl.add seen x v;
      v

let shrink_plan check plan =
  let check = memoized check in
  let rec go plan =
    match List.find_opt (fun p -> is_fail (check p)) (Gen.shrink_plan plan) with
    | Some smaller -> go smaller
    | None -> plan
  in
  go plan

let shrink_edits check c =
  let check = memoized check in
  let rec go c =
    match List.find_opt (fun c' -> is_fail (check c')) (Gen.shrink_edit_case c) with
    | Some smaller -> go smaller
    | None -> c
  in
  go c

type case_kind =
  | Unplanned
  | Planned of Gen.plan
  | Edited of Gen.edit_case * Rtcad_sg.Engine.t

let run ?(fast_sg = fun stg -> Oracle.fast_sg_result stg) ?(log = ignore) config =
  Obs.span "fuzz.run" @@ fun () ->
  let t0 = if Obs.enabled () then Obs.time_ms () else 0.0 in
  let check = check_plan ~fast_sg in
  let passed = ref 0 and skipped = ref 0 in
  let failure = ref None and ran = ref 0 in
  let record ~case ~seed kind verdict =
    match verdict with
    | Oracle.Pass -> incr passed
    | Oracle.Skip reason ->
      incr skipped;
      log (Printf.sprintf "case %d: skipped (%s)" case reason)
    | Oracle.Fail finding ->
      let plan, edits, finding =
        match kind with
        | Unplanned -> (None, [], finding)
        | Planned p when config.shrink ->
          log (Printf.sprintf "case %d failed [%s]; shrinking…" case finding.Oracle.oracle);
          let small = shrink_plan check p in
          let finding =
            match check small with Oracle.Fail f -> f | _ -> finding
          in
          (Some small, [], finding)
        | Planned p -> (Some p, [], finding)
        | Edited (c, engine) when config.shrink ->
          log (Printf.sprintf "case %d failed [%s]; shrinking…" case finding.Oracle.oracle);
          let small = shrink_edits (check_edits ~engine) c in
          let finding =
            match check_edits ~engine small with Oracle.Fail f -> f | _ -> finding
          in
          (Some small.Gen.base, small.Gen.edits, finding)
        | Edited (c, _) -> (Some c.Gen.base, c.Gen.edits, finding)
      in
      let g_text = Option.map (fun p -> Stg_io.to_string (Gen.stg_of_plan p)) plan in
      failure := Some { case; case_seed = seed; finding; plan; edits; g_text }
  in
  (* Everything a case does is derived from its sub-seed, so cases can be
     evaluated in any order — or concurrently — as long as the outcome is
     read off in case order.  [record] (counting, logging, shrinking)
     always runs serially on the initiating domain. *)
  let eval case =
    (* Each case starts with cold BDD operation caches (on whichever
       domain runs it): op-cache growth from one case must not speed up
       — or slow down, via collisions — the cases after it, or the
       campaign's behaviour would depend on the evaluation order.  The
       edit battery additionally owns the analysis pool per case
       ([Oracle.diff_incremental] clears it around each replay), so
       cases stay order- and domain-independent there too. *)
    Bdd.clear_caches ();
    let seed = case_seed config case in
    let rng = Rng.create seed in
    if config.edits > 0 then begin
      (* Edit-replay battery: a base spec, a short edit script, a forced
         engine.  Bases are kept at flow scale — every step runs full
         synthesis three ways. *)
      let base =
        match Rng.weighted rng [ (3, `Gen); (1, `Shape) ] with
        | `Gen -> Gen.gen_plan rng ~max_places:(min config.max_places flow_budget)
        | `Shape ->
          let p = Gen.gen_shape rng in
          if Gen.places_of_plan p <= flow_budget + 2 then p
          else Gen.gen_plan rng ~max_places:(min config.max_places flow_budget)
      in
      let engine =
        Rng.weighted rng
          [
            (2, Rtcad_sg.Engine.Symbolic);
            (2, Rtcad_sg.Engine.Explicit);
            (1, Rtcad_sg.Engine.Auto);
          ]
      in
      let c = { Gen.base; edits = Gen.gen_edits rng (1 + Rng.int rng config.edits) } in
      (seed, Edited (c, engine), check_edits ~engine c)
    end
    else
      match Rng.weighted rng [ (2, `Bitset); (2, `Sim); (5, `Stg); (1, `Shape) ] with
      | `Bitset -> (seed, Unplanned, guarded "bitset-diff" (fun () -> Oracle.diff_bitset rng))
      | `Sim -> (seed, Unplanned, guarded "sim-diff" (fun () -> Oracle.diff_sim rng))
      | `Stg ->
        let plan = Gen.gen_plan rng ~max_places:config.max_places in
        (seed, Planned plan, check plan)
      | `Shape ->
        let plan = Gen.gen_shape rng in
        (seed, Planned plan, check plan)
  in
  let record_result ~case (seed, kind, verdict) = record ~case ~seed kind verdict in
  if Par.jobs () = 1 || Par.in_parallel_region () || config.cases <= 1 then
    (try
       for case = 0 to config.cases - 1 do
         if !failure <> None then raise Exit;
         incr ran;
         record_result ~case (eval case)
       done
     with Exit -> ())
  else begin
    (* Cases are sharded across domains.  [min_fail] tracks the lowest
       failing case seen so far: cases above it need not run (the serial
       campaign would have stopped), while every case at or below it is
       still evaluated, so the counts and logs for cases preceding the
       first failure are exact.  The case-ordered replay below then
       reproduces the serial campaign — same counters, same log order,
       same (lowest-case) failure, shrinking done serially. *)
    let min_fail = Atomic.make max_int in
    let slots = Array.make config.cases None in
    Par.parallel_for ~chunk:1 config.cases (fun case ->
        if case <= Atomic.get min_fail then begin
          let r =
            try Ok (eval case) with e -> Error (e, Printexc.get_raw_backtrace ())
          in
          (match r with
          | Ok (_, _, Oracle.Fail _) | Error _ ->
            let rec lower () =
              let cur = Atomic.get min_fail in
              if case < cur && not (Atomic.compare_and_set min_fail cur case) then
                lower ()
            in
            lower ()
          | Ok _ -> ());
          slots.(case) <- Some r
        end);
    try
      for case = 0 to config.cases - 1 do
        if !failure <> None then raise Exit;
        incr ran;
        match slots.(case) with
        | None ->
          (* Only cases past the first failure are ever skipped. *)
          assert false
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | Some (Ok r) -> record_result ~case r
      done
    with Exit -> ()
  end;
  (* Recorded once, serially, after the campaign: the counts replayed in
     case order are identical at any job count; only the throughput gauge
     is wall-clock-dependent (and is normalised out of golden output). *)
  if Obs.enabled () then begin
    Obs.incr ~by:!ran "fuzz.cases_ran";
    Obs.incr ~by:!passed "fuzz.cases_passed";
    Obs.incr ~by:!skipped "fuzz.cases_skipped";
    let dt = (Obs.time_ms () -. t0) /. 1000.0 in
    if dt > 0.0 then Obs.set_gauge "fuzz.cases_per_sec" (float_of_int !ran /. dt)
  end;
  { ran = !ran; passed = !passed; skipped = !skipped; failure = !failure }

let pp_outcome ppf o =
  match o.failure with
  | None ->
    Format.fprintf ppf "%d case(s): %d passed, %d skipped, 0 failed" o.ran o.passed
      o.skipped
  | Some f ->
    Format.fprintf ppf "@[<v>case %d (seed %d) FAILED [%s]: %s" f.case f.case_seed
      f.finding.Oracle.oracle f.finding.Oracle.detail;
    (match f.plan with
    | Some p -> Format.fprintf ppf "@,minimal failing plan: %a" Gen.pp_plan p
    | None -> ());
    if f.edits <> [] then begin
      Format.fprintf ppf "@,minimal failing edits:";
      List.iter (fun e -> Format.fprintf ppf " %a" Gen.pp_edit e) f.edits
    end;
    Format.fprintf ppf "@]"
