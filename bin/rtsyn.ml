(* rtsyn: command-line front end to the relative-timing synthesis flow.

   Subcommands:
     check  — parse an STG, report reachability, properties and encoding
     synth  — run the Figure-2 flow and print the synthesis report
     sim    — timed simulation of a specification or a Table-2 circuit
     show   — pretty-print a specification (built-in or .g file)
     list   — list built-in specifications
     fuzz   — differential fuzzing of the optimized kernels
     cache  — inspect or trim a flow artifact-store directory
     serve  — long-running NDJSON daemon with a content-addressed cache *)

module Stg = Rtcad_stg.Stg
module Stg_io = Rtcad_stg.Stg_io
module Library = Rtcad_stg.Library
module Petri = Rtcad_stg.Petri
module Transform = Rtcad_stg.Transform
module Sg = Rtcad_sg.Sg
module Symbolic = Rtcad_sg.Symbolic
module Engine = Rtcad_sg.Engine
module Props = Rtcad_sg.Props
module Encoding = Rtcad_sg.Encoding
module Flow = Rtcad_core.Flow
module Check = Rtcad_core.Check
module Store = Rtcad_core.Store
module Fuzz = Rtcad_check.Fuzz
module Par = Rtcad_par.Par
module Obs = Rtcad_obs.Obs
module Vcd = Rtcad_obs.Vcd
module Harness = Rtcad_core.Harness
module Table2 = Rtcad_core.Table2
module Fifo_impls = Rtcad_core.Fifo_impls
module Timed_sim = Rtcad_rt.Timed_sim
module Serve = Rtcad_serve.Serve
module Serve_cache = Rtcad_serve.Cache
module Mux = Rtcad_serve.Mux
module Workload = Rtcad_rappid.Workload
module Rappid = Rtcad_rappid.Rappid

(* "ring10" → Some 10; the library exposes [ring n] as a family, not a
   fixed list, so the CLI accepts any member by name. *)
let parse_ring name =
  if String.length name > 4 && String.sub name 0 4 = "ring" then
    match int_of_string_opt (String.sub name 4 (String.length name - 4)) with
    | Some n when n >= 2 && n <= 64 -> Some n
    | _ -> None
  else None

let load_spec = function
  | `File path ->
    (* .g files hold STGs; .hp files hold handshake processes, which are
       compiled to STGs on the fly. *)
    if Filename.check_suffix path ".hp" then begin
      let ic = open_in path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Rtcad_hls.Compile.compile (Rtcad_hls.Parser.parse text)
    end
    else Stg_io.parse_file path
  | `Builtin name -> (
    match List.assoc_opt name (Library.all_named ()) with
    | Some stg -> stg
    | None -> (
      match parse_ring name with
      | Some n -> Library.ring n
      | None -> assert false (* ruled out by [spec_conv] *)))

(* --- argument converters --- *)

let spec_conv =
  let open Cmdliner in
  let parse s =
    if Sys.file_exists s then Ok (`File s)
    else if List.mem_assoc s (Library.all_named ()) || parse_ring s <> None then
      Ok (`Builtin s)
    else
      Error
        (`Msg
          (Printf.sprintf
             "%s is neither an existing file nor a built-in specification (see \
              `rtsyn list')"
             s))
  in
  let print ppf = function
    | `File p -> Format.pp_print_string ppf p
    | `Builtin n -> Format.pp_print_string ppf n
  in
  Arg.conv ~docv:"SPEC" (parse, print)

let spec_arg =
  let open Cmdliner in
  Arg.(
    required
    & pos 0 (some spec_conv) None
    & info [] ~docv:"SPEC"
        ~doc:
          "Specification: a .g file path, or a built-in name (see $(b,rtsyn \
           list)).")

(* "ri-<li+" : first edge must precede second edge. *)
let assumption_conv =
  let open Cmdliner in
  let parse_edge e =
    let n = String.length e in
    if n < 2 then Error (`Msg (Printf.sprintf "edge %S is too short" e))
    else
      match e.[n - 1] with
      | '+' -> Ok (String.sub e 0 (n - 1), Stg.Rise)
      | '-' -> Ok (String.sub e 0 (n - 1), Stg.Fall)
      | _ -> Error (`Msg (Printf.sprintf "edge %S must end in + or -" e))
  in
  let parse s =
    match String.index_opt s '<' with
    | None ->
      Error (`Msg (Printf.sprintf "assumption %S must look like ri-<li+" s))
    | Some i -> (
      let before = String.trim (String.sub s 0 i)
      and after = String.trim (String.sub s (i + 1) (String.length s - i - 1)) in
      match (parse_edge before, parse_edge after) with
      | Ok a, Ok b -> Ok (a, b)
      | (Error _ as e), _ | _, (Error _ as e) -> e)
  in
  let print ppf ((a, da), (b, db)) =
    let dir = function Stg.Rise -> "+" | Stg.Fall -> "-" in
    Format.fprintf ppf "%s%s<%s%s" a (dir da) b (dir db)
  in
  Arg.conv ~docv:"A<B" (parse, print)

(* Shared by every subcommand with a parallel kernel behind it.  The
   value only selects how much hardware is used: results are identical
   at any job count, so there is no determinism caveat to document per
   subcommand. *)
let jobs_conv =
  let open Cmdliner in
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "job count %S must be a positive integer" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let engine_term =
  let open Cmdliner in
  let engines =
    [ ("auto", Engine.Auto); ("explicit", Engine.Explicit);
      ("symbolic", Engine.Symbolic) ]
  in
  Arg.(
    value
    & opt (enum engines) Engine.Auto
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Reachability engine: $(b,explicit) (BFS state enumeration), \
           $(b,symbolic) (BDD fixpoint; handles state spaces the explicit \
           engine cannot enumerate) or $(b,auto) (symbolic past a structural \
           concurrency estimate).  Both engines compute identical verdicts.")

let jobs_term =
  let open Cmdliner in
  let arg =
    Arg.(
      value
      & opt (some jobs_conv) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Number of worker domains (default: $(b,RTCAD_JOBS), else the \
             machine's recommended domain count).  Results do not depend on \
             the job count.")
  in
  Term.(const (function None -> () | Some n -> Par.set_jobs n) $ arg)

(* --- observability sinks --- *)

let obs_term =
  let open Cmdliner in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record phase spans and metrics and write a Chrome trace_event \
             JSON file (open in chrome://tracing or Perfetto).")
  in
  let summary =
    Arg.(
      value
      & opt (some string) None
      & info [ "summary" ] ~docv:"FILE"
          ~doc:
            "Record metrics and write a JSON summary.  $(b,-) prints a \
             human-readable table to standard error instead.")
  in
  Term.(const (fun t s -> (t, s)) $ trace $ summary)

(* Sinks are emitted even when the command body fails — a trace of a
   failing synthesis is exactly when one wants it.  A sink that cannot be
   written turns a successful run into exit 1 with a clean message (and
   [Obs.write_file] guarantees no partial file is left behind). *)
let with_obs (trace, summary) f =
  if trace = None && summary = None then f ()
  else begin
    Obs.set_enabled true;
    let code = f () in
    let snap = Obs.snapshot () in
    let failed = ref false in
    let write what path data =
      match Obs.write_file ~path data with
      | Ok () -> ()
      | Error msg ->
        failed := true;
        Printf.eprintf "rtsyn: cannot write %s: %s\n" what msg
    in
    (match trace with
    | Some path -> write "trace" path (Obs.trace_json snap)
    | None -> ());
    (match summary with
    | Some "-" -> Format.eprintf "%a@." Obs.pp_summary snap
    | Some path -> write "summary" path (Obs.summary_json snap)
    | None -> ());
    if !failed && code = 0 then 1 else code
  end

(* Friendly reporting for the failures a well-formed command line can
   still run into: unreadable or malformed specification files, and
   specifications whose state graphs are broken or too large to hold. *)
let with_spec_errors f =
  try f () with
  | Stg_io.Parse_error (line, msg) ->
    Printf.eprintf "rtsyn: parse error on line %d: %s\n" line msg;
    1
  | Sys_error msg ->
    Printf.eprintf "rtsyn: %s\n" msg;
    1
  | Failure msg ->
    Printf.eprintf "rtsyn: %s\n" msg;
    1
  | Sg.Inconsistent msg ->
    Printf.eprintf "rtsyn: specification is inconsistent: %s\n" msg;
    1
  | Sg.Too_large bound ->
    Printf.eprintf
      "rtsyn: state graph exceeds %d states; try --engine symbolic\n" bound;
    1
  | Petri.Unsafe p ->
    Printf.eprintf
      "rtsyn: specification is unsafe: place %d can hold two tokens\n" p;
    1

(* --- check --- *)

let run_check () obs engine spec =
  with_obs obs @@ fun () ->
  with_spec_errors @@ fun () ->
  let stg = Transform.contract_dummies (load_spec spec) in
  Format.printf "%a@." Stg.pp stg;
  (match Engine.select engine stg with
  | `Explicit ->
    let sg = Sg.build stg in
    Format.printf "reachable states: %d@." (Sg.num_states sg);
    Format.printf "deadlock-free: %b@." (Props.deadlock_free sg);
    Format.printf "all transitions live: %b@." (Props.live_transitions sg);
    Format.printf "output-persistent: %b@." (Props.is_output_persistent sg);
    let conflicts = Encoding.csc_conflicts sg in
    if conflicts = [] then Format.printf "CSC: satisfied@."
    else begin
      Format.printf "CSC conflicts: %d@." (List.length conflicts);
      List.iter
        (fun c -> Format.printf "  %a@." (Encoding.pp_conflict sg) c)
        conflicts
    end
  | `Symbolic ->
    (* Every verdict is computed on the BDD — no state is ever
       enumerated, so specifications far beyond the explicit engine's
       reach still check in milliseconds. *)
    let sym = Symbolic.analyze_cached stg in
    Format.printf "reachable states: %d@." (Symbolic.num_states sym);
    Format.printf "deadlock-free: %b@." (Symbolic.deadlock_count sym = 0);
    Format.printf "all transitions live: %b@."
      (Symbolic.live_transitions sym);
    Format.printf "output-persistent: %b@."
      (Symbolic.is_output_persistent sym);
    (match Symbolic.csc_conflict_signals sym with
    | [] -> Format.printf "CSC: satisfied@."
    | us ->
      Format.printf "CSC conflicts on %d signal(s): %s@." (List.length us)
        (String.concat " " (List.map (Stg.signal_name stg) us)));
    Format.printf "%a@." Symbolic.pp_stats sym;
    Symbolic.publish_table_gauges ());
  0

(* --- synth --- *)

let run_synth () obs engine spec mode_name user input_first no_lazy style verify
    cache_dir =
  with_obs obs @@ fun () ->
  with_spec_errors @@ fun () ->
  let stg = load_spec spec in
  let mode =
    match mode_name with
    | `Si ->
      if user <> [] then prerr_endline "note: user assumptions ignored in SI mode";
      Flow.Si
    | `Rt ->
      Flow.Rt { user; allow_input_first = input_first; allow_lazy = not no_lazy }
  in
  let cache = Option.map (fun dir -> Store.create ~dir ()) cache_dir in
  match Flow.synthesize ?cache ~mode ~engine ?emit_style:style stg with
  | exception Flow.Synthesis_failure msg ->
    Printf.eprintf "synthesis failed: %s\n" msg;
    1
  | result ->
    Format.printf "%a@." Flow.pp_report result;
    Format.printf "@.%a@." Rtcad_netlist.Netlist.pp result.Flow.netlist;
    if verify then begin
      let untimed = Check.conformance result in
      if untimed.Rtcad_verify.Conformance.ok then
        Format.printf "@.verification: speed-independent (conforms untimed)@."
      else begin
        match Check.minimal_constraints result with
        | minimal ->
          Format.printf
            "@.verification: conforms under %d relative-timing constraints:@."
            (List.length minimal);
          List.iter
            (fun a ->
              Format.printf "  %a@." (Rtcad_rt.Assumption.pp result.Flow.stg) a)
            minimal
        | exception Rtcad_verify.Rt_verify.Not_verifiable ->
          Format.printf "@.verification: FAILS even with all assumptions@."
      end
    end;
    0

(* --- sim --- *)

let write_vcd path w =
  match Obs.write_file ~path (Vcd.contents w) with
  | Ok () -> 0
  | Error msg ->
    Printf.eprintf "rtsyn: cannot write VCD: %s\n" msg;
    1

let variant_of = function
  | `Si -> Fifo_impls.speed_independent ()
  | `Bm -> Fifo_impls.burst_mode ()
  | `Rt -> Fifo_impls.relative_timing ()
  | `Pulse -> Fifo_impls.pulse_mode ()

(* Two simulation back ends share the subcommand: a SPEC argument runs
   the eager timed STG execution; --circuit synthesizes one of the
   Table-2 FIFO controllers and drives it through the measurement
   harness.  Both can dump waveforms with --vcd. *)
let run_sim () obs spec circuit cycles steps seed vcd =
  with_obs obs @@ fun () ->
  with_spec_errors @@ fun () ->
  match (spec, circuit) with
  | Some _, Some _ ->
    prerr_endline "rtsyn: SPEC and --circuit are mutually exclusive";
    1
  | None, None ->
    prerr_endline "rtsyn: a SPEC argument or --circuit is required";
    1
  | Some spec, None ->
    let stg = Transform.contract_dummies ~strict:false (load_spec spec) in
    let trace = Timed_sim.run ~seed ~steps stg in
    List.iter
      (fun e ->
        Format.printf "%8.2f  %a@." e.Timed_sim.fired_at (Stg.pp_transition stg)
          e.Timed_sim.transition)
      trace;
    (match vcd with
    | None -> 0
    | Some path -> write_vcd path (Timed_sim.vcd_of_trace stg trace))
  | None, Some which -> (
    let v = variant_of which in
    let w = Option.map (fun _ -> Vcd.create ()) vcd in
    let m =
      if v.Fifo_impls.pulse then Harness.measure_pulse ?vcd:w ~cycles v.Fifo_impls.netlist
      else
        Harness.measure_fourphase ~env:(Table2.env_for v) ?vcd:w ~cycles
          v.Fifo_impls.netlist
    in
    Format.printf "%s: %a@." v.Fifo_impls.name Harness.pp m;
    match (vcd, w) with
    | Some path, Some w -> write_vcd path w
    | _ -> 0)

(* --- show / list --- *)

let run_show spec dot =
  with_spec_errors @@ fun () ->
  let stg = load_spec spec in
  if dot then Format.printf "%a@." Stg_io.print_dot stg
  else Format.printf "%a@." Stg_io.print stg;
  0

let run_list () =
  List.iter
    (fun (name, stg) ->
      Format.printf "%-10s %d signals, %d transitions@." name (Stg.num_signals stg)
        (Rtcad_stg.Petri.num_transitions (Stg.net stg)))
    (Library.all_named ());
  0

(* --- fuzz --- *)

let run_fuzz () obs seed cases max_places shrink edits out quiet =
  with_obs obs @@ fun () ->
  let config = { Fuzz.seed; cases; max_places; shrink; edits } in
  let log = if quiet then ignore else fun msg -> Printf.eprintf "%s\n%!" msg in
  let outcome = Fuzz.run ~log config in
  Format.printf "%a@." Fuzz.pp_outcome outcome;
  match outcome.Fuzz.failure with
  | None -> 0
  | Some f ->
    (match f.Fuzz.g_text with
    | Some g ->
      let oc = open_out out in
      output_string oc g;
      close_out oc;
      Printf.printf "minimal failing specification written to %s\n" out
    | None -> ());
    1

(* --- cmdliner wiring --- *)

open Cmdliner

let check_cmd =
  Cmd.v (Cmd.info "check" ~doc:"Analyze a specification (reachability, CSC)")
    Term.(const run_check $ jobs_term $ obs_term $ engine_term $ spec_arg)

let synth_cmd =
  let mode =
    Arg.(value & opt (enum [ ("si", `Si); ("rt", `Rt) ]) `Rt
         & info [ "mode" ] ~docv:"MODE" ~doc:"Synthesis mode: $(b,si) or $(b,rt).")
  in
  let user =
    Arg.(value & opt_all assumption_conv [] & info [ "assume" ] ~docv:"A<B"
         ~doc:"User timing assumption, e.g. $(b,ri-<li+).  Repeatable.")
  in
  let input_first =
    Arg.(value & flag & info [ "input-first" ]
         ~doc:"Allow automatic input-vs-input orderings (homogeneous environment).")
  in
  let no_lazy =
    Arg.(value & flag & info [ "no-lazy" ] ~doc:"Disable lazy cover relaxation.")
  in
  let style =
    let styles =
      [ ("static", Rtcad_synth.Emit.Static_cmos);
        ("domino", Rtcad_synth.Emit.Domino_cmos { footed = true });
        ("domino-unfooted", Rtcad_synth.Emit.Domino_cmos { footed = false }) ]
    in
    Arg.(value & opt (some (enum styles)) None & info [ "style" ] ~docv:"STYLE"
         ~doc:"Gate style: $(b,static), $(b,domino) or $(b,domino-unfooted).")
  in
  let verify =
    Arg.(value & flag & info [ "verify" ]
         ~doc:"Verify the netlist and print the minimal constraint set.")
  in
  let cache_dir =
    Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR"
         ~doc:"Reuse stage artifacts from $(docv) (created if missing): an \
               unchanged specification replays cached reachability, encoding \
               and covers instead of recomputing them.")
  in
  Cmd.v (Cmd.info "synth" ~doc:"Run the relative-timing synthesis flow")
    Term.(
      const run_synth $ jobs_term $ obs_term $ engine_term $ spec_arg $ mode
      $ user $ input_first $ no_lazy $ style $ verify $ cache_dir)

let sim_cmd =
  let spec_opt =
    Arg.(
      value
      & pos 0 (some spec_conv) None
      & info [] ~docv:"SPEC"
          ~doc:
            "Specification: a .g file path, or a built-in name (see $(b,rtsyn \
             list)).  Mutually exclusive with $(b,--circuit).")
  in
  let circuit =
    let variants =
      [ ("si", `Si); ("rt-bm", `Bm); ("rt", `Rt); ("pulse", `Pulse) ]
    in
    Arg.(
      value
      & opt (some (enum variants)) None
      & info [ "circuit" ] ~docv:"STYLE"
          ~doc:
            "Simulate one of the Table-2 FIFO controllers ($(b,si), \
             $(b,rt-bm), $(b,rt) or $(b,pulse)) through the measurement \
             harness instead of a specification.")
  in
  let cycles =
    Arg.(
      value & opt int 12
      & info [ "cycles" ] ~docv:"N" ~doc:"Handshake cycles for --circuit runs.")
  in
  let steps =
    Arg.(value & opt int 40 & info [ "steps" ] ~docv:"N" ~doc:"Number of firings.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Random seed (choice/jitter).")
  in
  let vcd =
    Arg.(
      value
      & opt (some string) None
      & info [ "vcd" ] ~docv:"FILE"
          ~doc:"Dump the simulation as a VCD waveform (view with GTKWave).")
  in
  Cmd.v
    (Cmd.info "sim"
       ~doc:
         "Timed execution: an eager STG trace (gate delay 1, environment 2), \
          or a Table-2 FIFO circuit under the measurement harness with \
          --circuit")
    Term.(
      const run_sim $ jobs_term $ obs_term $ spec_opt $ circuit $ cycles $ steps $ seed
      $ vcd)

let show_cmd =
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz instead of .g syntax.")
  in
  Cmd.v (Cmd.info "show" ~doc:"Print a specification (.g syntax, or Graphviz with --dot)")
    Term.(const run_show $ spec_arg $ dot)

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List built-in specifications")
    Term.(const run_list $ const ())

let fuzz_cmd =
  let seed =
    Arg.(value & opt int Fuzz.default.Fuzz.seed
         & info [ "seed" ] ~docv:"S" ~doc:"Campaign seed.")
  in
  let cases =
    Arg.(value & opt int Fuzz.default.Fuzz.cases
         & info [ "cases" ] ~docv:"N" ~doc:"Number of random cases to run.")
  in
  let max_places =
    Arg.(value & opt int Fuzz.default.Fuzz.max_places
         & info [ "max-places" ] ~docv:"P"
             ~doc:"Place budget for generated specifications.")
  in
  let shrink =
    Arg.(value & opt bool Fuzz.default.Fuzz.shrink
         & info [ "shrink" ] ~docv:"BOOL"
             ~doc:"Minimize a failing specification before reporting it.")
  in
  let out =
    Arg.(value & opt string "fuzz-fail.g"
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Where to write the minimal failing specification.")
  in
  let edits =
    Arg.(value & opt int Fuzz.default.Fuzz.edits
         & info [ "edits" ] ~docv:"N"
             ~doc:"Run the incremental edit-replay battery instead: each case \
                   applies up to $(docv) random edits to a base specification \
                   and checks delta-seeded/cached synthesis against \
                   from-scratch synthesis at every step.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress progress messages.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random specifications, netlists and bitset \
          workloads run through both the optimized kernels and naive \
          reference models")
    Term.(
      const run_fuzz $ jobs_term $ obs_term $ seed $ cases $ max_places $ shrink
      $ edits $ out $ quiet)

(* Strictly positive numeric flags share one conv so they all reject
   zero/negative values with the same clean message. *)
let pos_int_conv what =
  let open Cmdliner in
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "%s %S must be a positive integer" what s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

(* --- rappid --- *)

(* The model report on stdout is deterministic in (params, seed, profile,
   instructions, shards) — that is what the cram test pins.  Host-side
   measurements (wall-clock throughput, peak heap) go to stderr. *)
let run_rappid () obs instructions shards seed profile chunk heap_budget =
  with_obs obs @@ fun () ->
  if instructions < 0 then begin
    Printf.eprintf "rtsyn: --instrs must be non-negative\n";
    1
  end
  else begin
    let t0 = Unix.gettimeofday () in
    let farm = Rappid.run_farm ~chunk ~shards ~seed profile ~instructions in
    let wall = Unix.gettimeofday () -. t0 in
    let peak = (Gc.quick_stat ()).Gc.top_heap_words in
    Format.printf "%a@." Rappid.pp_farm farm;
    if wall > 0.0 && instructions > 0 then
      Printf.eprintf "host: %.0f instrs/sec wall (%.3f s), peak heap %d words\n%!"
        (float_of_int instructions /. wall)
        wall peak;
    match heap_budget with
    | Some budget when peak > budget ->
      Printf.eprintf
        "rtsyn: peak heap %d words exceeds budget %d words (stream length \
         must not drive memory)\n"
        peak budget;
      1
    | _ -> 0
  end

let rappid_cmd =
  let instructions =
    Arg.(
      value
      & opt int 1_000_000
      & info [ "instrs" ] ~docv:"N"
          ~doc:"Virtual instruction-stream length (streamed, never materialized).")
  in
  let shards =
    Arg.(
      value
      & opt (pos_int_conv "shard count") 1
      & info [ "shards" ] ~docv:"K"
          ~doc:
            "Independent decoder instances; the virtual stream is split into \
             $(docv) contiguous slices and the per-shard results are merged \
             in shard order, so the report does not depend on the job count.")
  in
  let seed =
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"S" ~doc:"Workload seed.")
  in
  let profile =
    let variants =
      List.map (fun p -> (p.Workload.name, p)) Workload.all_profiles
    in
    Arg.(
      value
      & opt (enum variants) Workload.typical
      & info [ "profile" ] ~docv:"PROFILE"
          ~doc:"Instruction-length mix: $(b,typical), $(b,uniform), $(b,short) \
                or $(b,long).")
  in
  let chunk =
    Arg.(
      value
      & opt (pos_int_conv "chunk size") Rappid.default_chunk
      & info [ "chunk" ] ~docv:"C"
          ~doc:
            "Refill-buffer length per shard (memory knob only: the result is \
             bit-identical for any chunk size).")
  in
  let heap_budget =
    Arg.(
      value
      & opt (some (pos_int_conv "heap budget")) None
      & info [ "heap-budget-words" ] ~docv:"W"
          ~doc:
            "Fail (exit 1) if the OCaml heap ever grows past $(docv) words — \
             the smoke test's constant-memory guard.")
  in
  Cmd.v
    (Cmd.info "rappid"
       ~doc:
         "Stream a synthetic instruction mix through the RAPPID length-decode \
          model: constant-memory generation, an optional sharded decoder \
          farm, and first-class latency percentiles")
    Term.(
      const run_rappid $ jobs_term $ obs_term $ instructions $ shards $ seed
      $ profile $ chunk $ heap_budget)

(* --- cache --- *)

(* Directory maintenance for the staged-flow artifact store written by
   `synth --cache` and `serve --cache-dir`.  All three actions scan the
   directory and drop undecodable entries, so a corrupted store heals on
   first inspection. *)
let run_cache action dir budget =
  if not (Sys.file_exists dir && Sys.is_directory dir) then begin
    Printf.eprintf "rtsyn: %s is not a directory\n" dir;
    1
  end
  else
    match action with
    | `Stats ->
      let st = Store.disk_stats ~dir in
      Format.printf "entries: %d@." st.Store.d_entries;
      Format.printf "bytes: %d@." st.Store.d_bytes;
      Format.printf "corrupt removed: %d@." st.Store.d_corrupt;
      List.iter
        (fun (stage, n) -> Format.printf "  %-10s %d@." stage n)
        st.Store.d_stages;
      0
    | `Ls ->
      List.iter
        (fun e ->
          Format.printf "%-10s %s %d@." e.Store.de_stage e.Store.de_key
            e.Store.de_bytes)
        (Store.ls ~dir);
      0
    | `Gc -> (
      match budget with
      | None ->
        prerr_endline "rtsyn: cache gc requires --budget BYTES";
        1
      | Some budget ->
        let removed, remaining = Store.gc ~dir ~budget in
        Format.printf "removed %d entries, %d bytes remain@." removed remaining;
        0)

let cache_cmd =
  let action =
    Arg.(
      required
      & pos 0 (some (enum [ ("stats", `Stats); ("ls", `Ls); ("gc", `Gc) ])) None
      & info [] ~docv:"ACTION"
          ~doc:"$(b,stats) (totals and per-stage counts), $(b,ls) (one line \
                per entry) or $(b,gc) (trim oldest entries to --budget).")
  in
  let dir =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"DIR" ~doc:"The artifact-store directory.")
  in
  let budget =
    Arg.(
      value
      & opt (some (pos_int_conv "gc budget")) None
      & info [ "budget" ] ~docv:"BYTES"
          ~doc:"Disk budget for $(b,gc): oldest entries are removed until the \
                store fits.")
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:
         "Inspect or trim a flow artifact store (the $(b,--cache)/$(b,--cache-dir) \
          directory): corrupted entries are detected and removed, never served")
    Term.(const run_cache $ action $ dir $ budget)

(* --- serve --- *)

let run_serve () obs socket queue capacity budget shards cache_dir engine
    max_states timeout_ms capture wave_max wave_ms backlog =
  (* Per-request capture owns the global recorder (it resets it around
     every piece of work), so it cannot coexist with the cumulative
     --trace/--summary sinks. *)
  if capture <> Serve.Obs_off && (fst obs <> None || snd obs <> None) then begin
    prerr_endline
      "rtsyn: serve --capture cannot be combined with --trace/--summary";
    2
  end
  else
    with_obs obs @@ fun () ->
    with_spec_errors @@ fun () ->
    let cache =
      Serve_cache.create ~shards ~budget ?capacity ?dir:cache_dir ()
    in
    (* Stage artifacts live beside the response cache: a response entry
       that was evicted (or a request varying only in style) still
       replays the expensive stages. *)
    let flow_store =
      Option.map
        (fun d -> Store.create ~dir:(Filename.concat d "flow") ())
        cache_dir
    in
    let cfg =
      {
        Serve.queue;
        cache;
        engine;
        obs_mode = capture;
        timeout_ms;
        max_states;
        flow_store;
      }
    in
    (match socket with
    | None -> Serve.run_stdio cfg
    | Some path -> (
      let mux = { (Mux.default cfg) with wave_max; wave_ms; backlog } in
      try Mux.run mux ~path
      with Mux.Busy p ->
        Printf.eprintf "rtsyn: a daemon is already serving %s\n" p;
        1))

let serve_cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Serve a Unix-domain stream socket at $(docv) (many concurrent \
             connections multiplexed over one cache and domain pool) instead \
             of stdin/stdout.")
  in
  let queue =
    Arg.(
      value
      & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Work-queue capacity: a batched request beyond $(docv) pending is \
             answered with a structured $(b,overloaded) error instead of \
             buffering unboundedly.")
  in
  let capacity =
    Arg.(
      value
      & opt (some (pos_int_conv "cache capacity")) None
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:
            "Additionally bound the in-memory result cache to $(docv) entries \
             (LRU beyond it); by default only the cost budget bounds it.")
  in
  let budget =
    Arg.(
      value
      & opt (pos_int_conv "cache budget") (32 * 1024 * 1024)
      & info [ "cache-budget" ] ~docv:"COST"
          ~doc:
            "In-memory cache cost budget: each entry costs its payload bytes \
             plus its recorded compute milliseconds; least-recently-used \
             entries are evicted past $(docv).")
  in
  let shards =
    Arg.(
      value
      & opt (pos_int_conv "shard count") 8
      & info [ "cache-shards" ] ~docv:"N"
          ~doc:"In-memory cache shards (keyed by hash prefix, per-shard LRU).")
  in
  let wave_max =
    Arg.(
      value
      & opt (pos_int_conv "wave size") 16
      & info [ "wave-max" ] ~docv:"N"
          ~doc:
            "Socket mode: dispatch pooled cache misses as one parallel wave \
             of at most $(docv).")
  in
  let wave_ms =
    let ms_conv =
      let parse s =
        match float_of_string_opt s with
        | Some f when f >= 0.0 -> Ok f
        | Some _ | None ->
          Error
            (`Msg
               (Printf.sprintf "wave budget %S must be a non-negative number" s))
      in
      Arg.conv ~docv:"MS" (parse, Format.pp_print_float)
    in
    Arg.(
      value
      & opt ms_conv 2.0
      & info [ "wave-ms" ] ~docv:"MS"
          ~doc:
            "Socket mode: maximum milliseconds a pooled cache miss may wait \
             for companions before its wave dispatches anyway.")
  in
  let backlog =
    Arg.(
      value
      & opt (pos_int_conv "backlog") 64
      & info [ "backlog" ] ~docv:"N"
          ~doc:"Socket mode: kernel accept-queue bound passed to listen(2).")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Persist results on disk under $(docv) (content-addressed, \
             checksummed; corrupted entries are recomputed, never served).")
  in
  let max_states =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-states" ] ~docv:"N"
          ~doc:"Default explicit-engine state bound for served requests.")
  in
  let timeout_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Per-request wall-clock budget: a request that finishes past it \
             is answered with a $(b,timeout) error.")
  in
  let capture =
    let modes =
      [ ("off", Serve.Obs_off); ("normalised", Serve.Obs_normalised);
        ("full", Serve.Obs_full) ]
    in
    Arg.(
      value
      & opt (enum modes) Serve.Obs_off
      & info [ "capture" ] ~docv:"MODE"
          ~doc:
            "Attach a per-request metrics summary to every response: \
             $(b,normalised) zeroes wall-clock fields (byte-stable across \
             machines and job counts), $(b,full) keeps them.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-running synthesis service: NDJSON requests in, NDJSON \
          responses out, results content-addressed in a two-tier cache")
    Term.(
      const run_serve $ jobs_term $ obs_term $ socket $ queue $ capacity
      $ budget $ shards $ cache_dir $ engine_term $ max_states $ timeout_ms
      $ capture $ wave_max $ wave_ms $ backlog)

let main =
  Cmd.group
    (Cmd.info "rtsyn" ~version:"1.0"
       ~doc:"Relative-timing synthesis for asynchronous circuits")
    [
      check_cmd;
      synth_cmd;
      sim_cmd;
      show_cmd;
      list_cmd;
      fuzz_cmd;
      rappid_cmd;
      cache_cmd;
      serve_cmd;
    ]

let () = exit (Cmd.eval' main)
