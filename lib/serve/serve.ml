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
module Csc = Rtcad_sg.Csc
module Flow = Rtcad_core.Flow
module Check = Rtcad_core.Check
module Store = Rtcad_core.Store
module Harness = Rtcad_core.Harness
module Table2 = Rtcad_core.Table2
module Fifo_impls = Rtcad_core.Fifo_impls
module Netlist = Rtcad_netlist.Netlist
module Assumption = Rtcad_rt.Assumption
module Timed_sim = Rtcad_rt.Timed_sim
module Fuzz = Rtcad_check.Fuzz
module Oracle = Rtcad_check.Oracle
module Par = Rtcad_par.Par
module Obs = Rtcad_obs.Obs
module Vcd = Rtcad_obs.Vcd
module Rappid = Rtcad_rappid.Rappid
module Workload = Rtcad_rappid.Workload

type obs_mode = Obs_off | Obs_normalised | Obs_full

type config = {
  queue : int;
  cache : Store.t;
  engine : Engine.t;
  obs_mode : obs_mode;
  timeout_ms : float option;
  max_states : int option;
  flow_store : Store.t option;
}

let default_config ?cache ?flow_store () =
  {
    queue = 64;
    cache = (match cache with Some c -> c | None -> Cache.create ());
    engine = Engine.Auto;
    obs_mode = Obs_off;
    timeout_ms = None;
    max_states = None;
    flow_store;
  }

(* Bumped whenever a response payload changes shape, so stale on-disk
   cache entries from an older server can never be replayed. *)
let protocol_version = "rtcad-serve/1"

exception Bad_request of string
exception Timeout of float

(* --- structured errors --- *)

type err = { kind : string; message : string }

let err kind message = { kind; message }

let err_of_exn = function
  | Bad_request m -> err "bad_request" m
  | Json.Parse_error { pos; msg } ->
    err "parse_error" (Printf.sprintf "request is not valid JSON (byte %d: %s)" pos msg)
  | Stg_io.Parse_error (line, m) ->
    err "parse_error" (Printf.sprintf "spec parse error on line %d: %s" line m)
  | Rtcad_hls.Parser.Parse_error (line, m) ->
    err "parse_error" (Printf.sprintf "hp parse error on line %d: %s" line m)
  | Rtcad_hls.Compile.Unsupported m -> err "bad_request" ("unsupported hp construct: " ^ m)
  | Sg.Inconsistent m -> err "engine_failure" ("specification is inconsistent: " ^ m)
  | Sg.Too_large bound ->
    err "too_large"
      (Printf.sprintf "state graph exceeds %d states; retry with \"engine\":\"symbolic\""
         bound)
  | Petri.Unsafe p ->
    err "engine_failure"
      (Printf.sprintf "specification is unsafe: place %d can hold two tokens" p)
  | Flow.Synthesis_failure m -> err "engine_failure" ("synthesis failed: " ^ m)
  | Rtcad_verify.Rt_verify.Not_verifiable ->
    err "engine_failure" "netlist fails verification even with all assumptions"
  | Timeout ms ->
    err "timeout" (Printf.sprintf "request exceeded its budget (ran %.0f ms)" ms)
  | Failure m -> err "engine_failure" m
  | Sys_error m -> err "io_error" m
  | e -> err "internal" (Printexc.to_string e)

(* --- request field access --- *)

let req_field req name conv what =
  match Json.member name req with
  | None -> None
  | Some v -> (
    match conv v with
    | Some x -> Some x
    | None -> raise (Bad_request (Printf.sprintf "field %S must be %s" name what)))

let int_field req name = req_field req name Json.to_int "an integer"
let str_field req name = req_field req name Json.to_str "a string"
let bool_field req name = req_field req name Json.to_bool "a boolean"

let list_field req name =
  req_field req name (function Json.List l -> Some l | _ -> None) "an array"

(* Unknown fields are rejected rather than ignored: a typo'd option that
   silently falls back to a default would also silently alias two
   different requests onto one cache key. *)
let check_fields op req allowed =
  match req with
  | Json.Obj fields ->
    List.iter
      (fun (k, _) ->
        if not (List.mem k ("id" :: "op" :: allowed)) then
          raise
            (Bad_request (Printf.sprintf "unknown field %S for op %S" k op)))
      fields
  | _ -> ()

(* --- specification resolution --- *)

let parse_ring name =
  if String.length name > 4 && String.sub name 0 4 = "ring" then
    match int_of_string_opt (String.sub name 4 (String.length name - 4)) with
    | Some n when n >= 2 && n <= 64 -> Some n
    | _ -> None
  else None

let lookup_builtin name =
  match List.assoc_opt name (Library.all_named ()) with
  | Some stg -> Some stg
  | None -> Option.map Library.ring (parse_ring name)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A [spec] string is a built-in name unless it looks like spec text (a
   leading [.] directive or any newline).  Returns the STG and its
   canonical [.g] rendering — the round-trip-stable printer normalizes
   whitespace, ordering and naming variants onto one cache identity. *)
let resolve_spec req =
  let lang =
    match str_field req "lang" with
    | None | Some "g" -> `G
    | Some "hp" -> `Hp
    | Some l -> raise (Bad_request (Printf.sprintf "unknown lang %S (g or hp)" l))
  in
  let of_text text =
    match lang with
    | `Hp -> Rtcad_hls.Compile.compile (Rtcad_hls.Parser.parse text)
    | `G -> Stg_io.parse text
  in
  let stg =
    match (str_field req "spec", str_field req "spec_file") with
    | Some _, Some _ -> raise (Bad_request "spec and spec_file are mutually exclusive")
    | None, None -> raise (Bad_request "a spec or spec_file field is required")
    | Some s, None ->
      if lang = `Hp || String.contains s '\n' || (s <> "" && s.[0] = '.') then
        of_text s
      else (
        match lookup_builtin s with
        | Some stg -> stg
        | None ->
          raise
            (Bad_request
               (Printf.sprintf
                  "%S is neither a built-in specification nor spec text" s)))
    | None, Some path ->
      if Filename.check_suffix path ".hp" then
        Rtcad_hls.Compile.compile (Rtcad_hls.Parser.parse (read_file path))
      else of_text (read_file path)
  in
  (stg, Stg_io.to_string stg)

let engine_of cfg req =
  match str_field req "engine" with
  | None -> cfg.engine
  | Some s -> (
    match Engine.of_string s with
    | Some e -> e
    | None ->
      raise
        (Bad_request
           (Printf.sprintf "unknown engine %S (auto, explicit or symbolic)" s)))

let max_states_of cfg req =
  match int_field req "max_states" with None -> cfg.max_states | Some n -> Some n

let fp_max_states = function
  | None -> "max_states=default"
  | Some n -> Printf.sprintf "max_states=%d" n

(* --- assumption syntax ("ri-<li+") --- *)

let parse_edge e =
  let n = String.length e in
  if n < 2 then raise (Bad_request (Printf.sprintf "edge %S is too short" e))
  else
    match e.[n - 1] with
    | '+' -> (String.sub e 0 (n - 1), Stg.Rise)
    | '-' -> (String.sub e 0 (n - 1), Stg.Fall)
    | _ -> raise (Bad_request (Printf.sprintf "edge %S must end in + or -" e))

let parse_assumption s =
  match String.index_opt s '<' with
  | None ->
    raise (Bad_request (Printf.sprintf "assumption %S must look like ri-<li+" s))
  | Some i ->
    let before = String.trim (String.sub s 0 i)
    and after = String.trim (String.sub s (i + 1) (String.length s - i - 1)) in
    (parse_edge before, parse_edge after)

(* --- decoded work --- *)

type work = {
  w_op : string;
  w_engine : string option;  (** resolved engine, for the envelope *)
  w_key : string;
  w_compute : unit -> Json.t;  (** the result payload *)
}

let engine_name = function `Explicit -> "explicit" | `Symbolic -> "symbolic"

let transition_str stg t = Format.asprintf "%a" (Stg.pp_transition stg) t

(* -- check -- *)

let decode_check cfg req =
  check_fields "check" req [ "spec"; "spec_file"; "lang"; "engine"; "max_states" ];
  let stg, canon = resolve_spec req in
  let engine = engine_of cfg req in
  let max_states = max_states_of cfg req in
  let contracted = Transform.contract_dummies stg in
  let sel = Engine.select engine contracted in
  let compute () =
    let states, deadlock_free, live, persistent, conflict_signals =
      match sel with
      | `Explicit ->
        let sg = Sg.build ?max_states contracted in
        let signals =
          List.sort_uniq compare
            (List.concat_map
               (fun c -> c.Encoding.signals)
               (Encoding.csc_conflicts sg))
        in
        ( Sg.num_states sg,
          Props.deadlock_free sg,
          Props.live_transitions sg,
          Props.is_output_persistent sg,
          signals )
      | `Symbolic ->
        let sym = Symbolic.analyze_cached ?max_states contracted in
        ( Symbolic.num_states sym,
          Symbolic.deadlock_count sym = 0,
          Symbolic.live_transitions sym,
          Symbolic.is_output_persistent sym,
          Symbolic.csc_conflict_signals sym )
    in
    Json.Obj
      [
        ("states", Json.Int states);
        ("deadlock_free", Json.Bool deadlock_free);
        ("live_transitions", Json.Bool live);
        ("output_persistent", Json.Bool persistent);
        ("csc_satisfied", Json.Bool (conflict_signals = []));
        ( "csc_signals",
          Json.List
            (List.map
               (fun s -> Json.String (Stg.signal_name contracted s))
               conflict_signals) );
      ]
  in
  {
    w_op = "check";
    w_engine = Some (engine_name sel);
    w_key =
      Store.key
        [ protocol_version; "check"; canon; engine_name sel; fp_max_states max_states ];
    w_compute = compute;
  }

(* -- synth -- *)

let decode_synth cfg req =
  check_fields "synth" req
    [ "spec"; "spec_file"; "lang"; "engine"; "max_states"; "mode"; "assume";
      "input_first"; "no_lazy"; "style"; "verify" ];
  let stg, canon = resolve_spec req in
  let engine = engine_of cfg req in
  let max_states = max_states_of cfg req in
  let user =
    match list_field req "assume" with
    | None -> []
    | Some items ->
      List.map
        (fun j ->
          match Json.to_str j with
          | Some s -> parse_assumption s
          | None -> raise (Bad_request "assume entries must be strings"))
        items
  in
  let input_first = Option.value ~default:false (bool_field req "input_first") in
  let no_lazy = Option.value ~default:false (bool_field req "no_lazy") in
  let mode =
    match Option.value ~default:"rt" (str_field req "mode") with
    | "rt" -> Flow.Rt { user; allow_input_first = input_first; allow_lazy = not no_lazy }
    | "si" ->
      if user <> [] || input_first || no_lazy then
        raise (Bad_request "assume/input_first/no_lazy only apply to mode \"rt\"");
      Flow.Si
    | m -> raise (Bad_request (Printf.sprintf "unknown mode %S (si or rt)" m))
  in
  let style_name, emit_style =
    match str_field req "style" with
    | None -> ("default", None)
    | Some "static" -> ("static", Some Rtcad_synth.Emit.Static_cmos)
    | Some "domino" -> ("domino", Some (Rtcad_synth.Emit.Domino_cmos { footed = true }))
    | Some "domino-unfooted" ->
      ("domino-unfooted", Some (Rtcad_synth.Emit.Domino_cmos { footed = false }))
    | Some s ->
      raise
        (Bad_request
           (Printf.sprintf "unknown style %S (static, domino or domino-unfooted)" s))
  in
  let verify = Option.value ~default:false (bool_field req "verify") in
  let sel = Engine.select engine (Transform.contract_dummies stg) in
  let compute () =
    let r =
      Flow.synthesize ?cache:cfg.flow_store ~mode ~engine ?emit_style ?max_states
        stg
    in
    let a_str a = Format.asprintf "%a" (Assumption.pp r.Flow.stg) a in
    let base =
      [
        ("states_full", Json.Int (Flow.num_states_full r));
        ("states_used", Json.Int (Flow.num_states_used r));
        ( "insertions",
          Json.List
            (List.map
               (fun i ->
                 Json.String (Format.asprintf "%a" (Csc.pp_insertion r.Flow.stg) i))
               r.Flow.insertions) );
        ("assumptions", Json.Int (List.length r.Flow.assumptions));
        ("constraints", Json.List (List.map (fun a -> Json.String (a_str a)) r.Flow.constraints));
        ( "signals",
          Json.List
            (List.map
               (fun s ->
                 Json.Obj
                   [
                     ("name", Json.String s.Flow.signal_name);
                     ("literals", Json.Int s.Flow.literals);
                   ])
               r.Flow.signals) );
        ("gates", Json.Int (Netlist.gate_count r.Flow.netlist));
        ("netlist", Json.String (Format.asprintf "%a" Netlist.pp r.Flow.netlist));
      ]
    in
    let verification =
      if not verify then []
      else
        let v =
          let untimed = Check.conformance r in
          if untimed.Rtcad_verify.Conformance.ok then
            Json.Obj
              [
                ("conforms", Json.Bool true);
                ("speed_independent", Json.Bool true);
                ("minimal_constraints", Json.List []);
              ]
          else
            match Check.minimal_constraints r with
            | minimal ->
              Json.Obj
                [
                  ("conforms", Json.Bool true);
                  ("speed_independent", Json.Bool false);
                  ( "minimal_constraints",
                    Json.List (List.map (fun a -> Json.String (a_str a)) minimal) );
                ]
            | exception Rtcad_verify.Rt_verify.Not_verifiable ->
              Json.Obj [ ("conforms", Json.Bool false) ]
        in
        [ ("verification", v) ]
    in
    Json.Obj (base @ verification)
  in
  {
    w_op = "synth";
    w_engine = Some (engine_name sel);
    w_key =
      Store.key
        [ protocol_version; "synth"; canon; engine_name sel; Flow.fingerprint mode;
          "style=" ^ style_name; Printf.sprintf "verify=%b" verify;
          fp_max_states max_states ];
    w_compute = compute;
  }

(* -- sim -- *)

(* Looking a circuit up builds nothing: validation at decode time and
   the wave's compute share this table, and only compute synthesizes. *)
let variant_of = function
  | "si" -> Fifo_impls.speed_independent
  | "rt-bm" -> Fifo_impls.burst_mode
  | "rt" -> Fifo_impls.relative_timing
  | "pulse" -> Fifo_impls.pulse_mode
  | c ->
    raise
      (Bad_request
         (Printf.sprintf "unknown circuit %S (si, rt-bm, rt, pulse or rappid)" c))

let measurement_json name cycles (m : Harness.measurement) =
  [
    ("name", Json.String name);
    ("cycles", Json.Int cycles);
    ("worst_delay_ps", Json.Float m.Harness.worst_delay_ps);
    ("avg_delay_ps", Json.Float m.Harness.avg_delay_ps);
    ("avg_forward_ps", Json.Float m.Harness.avg_forward_ps);
    ("energy_per_cycle_pj", Json.Float m.Harness.energy_per_cycle_pj);
    ("glitches", Json.Int m.Harness.glitches);
  ]

let decode_sim cfg req =
  check_fields "sim" req
    [ "spec"; "spec_file"; "lang"; "circuit"; "cycles"; "vcd"; "steps"; "seed";
      "instructions" ];
  match str_field req "circuit" with
  | Some "rappid" ->
    let instructions = Option.value ~default:20_000 (int_field req "instructions") in
    let seed = Option.value ~default:7 (int_field req "seed") in
    let compute () =
      let stream = Workload.generate ~seed Workload.typical ~instructions in
      let r = Rappid.run stream in
      Json.Obj
        [
          ("instructions", Json.Int r.Rappid.instructions);
          ("lines", Json.Int r.Rappid.lines);
          ("gips", Json.Float r.Rappid.gips);
          ("summary_json", Json.String (Rappid.summary_json r));
        ]
    in
    {
      w_op = "sim";
      w_engine = None;
      w_key =
        Store.key
          [ protocol_version; "sim-rappid"; string_of_int instructions;
            string_of_int seed ];
      w_compute = compute;
    }
  | Some circuit ->
    (* Validate the name at decode time so a bad request errors before
       the wave, like every other malformed field. *)
    let build = variant_of circuit in
    let cycles = Option.value ~default:12 (int_field req "cycles") in
    let vcd = Option.value ~default:false (bool_field req "vcd") in
    let obs_capture = cfg.obs_mode <> Obs_off in
    let compute () =
      let v = build () in
      (* Per-request capture must hold the metrics of the measurement
         alone — the golden corpus snapshots were recorded that way —
         so the synthesis that just built the variant is dropped. *)
      if obs_capture then Obs.reset ();
      let w = if vcd then Some (Vcd.create ()) else None in
      let m =
        if v.Fifo_impls.pulse then Harness.measure_pulse ?vcd:w ~cycles v.Fifo_impls.netlist
        else
          Harness.measure_fourphase ~env:(Table2.env_for v) ?vcd:w ~cycles
            v.Fifo_impls.netlist
      in
      let vcd_field =
        match w with
        | Some w -> [ ("vcd", Json.String (Vcd.contents w)) ]
        | None -> []
      in
      Json.Obj (measurement_json v.Fifo_impls.name cycles m @ vcd_field)
    in
    {
      w_op = "sim";
      w_engine = None;
      w_key =
        Store.key
          [ protocol_version; "sim-circuit"; circuit; string_of_int cycles;
            string_of_bool vcd ];
      w_compute = compute;
    }
  | None ->
    let stg, canon = resolve_spec req in
    let steps = Option.value ~default:40 (int_field req "steps") in
    let seed = Option.value ~default:1 (int_field req "seed") in
    let compute () =
      let contracted = Transform.contract_dummies ~strict:false stg in
      let trace = Timed_sim.run ~seed ~steps contracted in
      Json.Obj
        [
          ("steps", Json.Int steps);
          ("seed", Json.Int seed);
          ( "events",
            Json.List
              (List.map
                 (fun e ->
                   Json.Obj
                     [
                       ("at_ps", Json.Float e.Timed_sim.fired_at);
                       ("fire", Json.String (transition_str contracted e.Timed_sim.transition));
                     ])
                 trace) );
        ]
    in
    {
      w_op = "sim";
      w_engine = None;
      w_key =
        Store.key
          [ protocol_version; "sim-spec"; canon; string_of_int steps; string_of_int seed ];
      w_compute = compute;
    }

(* -- fuzz -- *)

let decode_fuzz _cfg req =
  check_fields "fuzz" req [ "seed"; "cases"; "max_places"; "shrink" ];
  let d = Fuzz.default in
  let seed = Option.value ~default:d.Fuzz.seed (int_field req "seed") in
  let cases = Option.value ~default:d.Fuzz.cases (int_field req "cases") in
  let max_places = Option.value ~default:d.Fuzz.max_places (int_field req "max_places") in
  let shrink = Option.value ~default:d.Fuzz.shrink (bool_field req "shrink") in
  let compute () =
    let o = Fuzz.run ~log:(fun _ -> ()) { Fuzz.seed; cases; max_places; shrink; edits = 0 } in
    Json.Obj
      [
        ("ran", Json.Int o.Fuzz.ran);
        ("passed", Json.Int o.Fuzz.passed);
        ("skipped", Json.Int o.Fuzz.skipped);
        ("ok", Json.Bool (Option.is_none o.Fuzz.failure));
        ( "failure",
          match o.Fuzz.failure with
          | None -> Json.Null
          | Some f ->
            Json.Obj
              [
                ("case", Json.Int f.Fuzz.case);
                ("case_seed", Json.Int f.Fuzz.case_seed);
                ("oracle", Json.String f.Fuzz.finding.Oracle.oracle);
                ("detail", Json.String f.Fuzz.finding.Oracle.detail);
                ( "g",
                  match f.Fuzz.g_text with
                  | None -> Json.Null
                  | Some g -> Json.String g );
              ] );
      ]
  in
  {
    w_op = "fuzz";
    w_engine = None;
    w_key =
      Store.key
        [ protocol_version; "fuzz"; string_of_int seed; string_of_int cases;
          string_of_int max_places; string_of_bool shrink ];
    w_compute = compute;
  }

let decode_work cfg op req =
  match op with
  | "check" -> decode_check cfg req
  | "synth" -> decode_synth cfg req
  | "sim" -> decode_sim cfg req
  | "fuzz" -> decode_fuzz cfg req
  | _ -> assert false (* only called for work ops *)

(* --- responses --- *)

let error_response ~id ~op e =
  Json.Obj
    [
      ("id", id);
      ("op", op);
      ("ok", Json.Bool false);
      ( "error",
        Json.Obj
          [ ("kind", Json.String e.kind); ("message", Json.String e.message) ] );
    ]

let control_response ~id ~op result =
  Json.Obj [ ("id", id); ("op", Json.String op); ("ok", Json.Bool true); ("result", result) ]

let work_response ~id ~(w : work) ~cached ~obs result =
  Json.Obj
    ([ ("id", id); ("op", Json.String w.w_op); ("ok", Json.Bool true);
       ("cached", Json.Bool cached) ]
    @ (match w.w_engine with
      | Some e -> [ ("engine", Json.String e) ]
      | None -> [])
    @ [ ("key", Json.String w.w_key); ("result", result) ]
    @ match obs with Some s -> [ ("obs", Json.String s) ] | None -> [])

(* --- the session --- *)

type pending =
  | P_work of { id : Json.t; op : string; req : Json.t }
  | P_shed of { id : Json.t; op : string }

type session = {
  cfg : config;
  mutable batching : bool;
  mutable pending : pending list;  (** reversed arrival order *)
  mutable admitted : int;
  mutable seq : int;
  mutable stop : bool;
  mutable requests : int;
  mutable shed : int;
}

let session cfg =
  {
    cfg = { cfg with queue = max 1 cfg.queue };
    batching = false;
    pending = [];
    admitted = 0;
    seq = 0;
    stop = false;
    requests = 0;
    shed = 0;
  }

let stopped s = s.stop

(* Run one piece of work, with per-request observability capture and the
   cooperative wall-clock budget.  Never raises.  The elapsed wall time
   travels with the result: it becomes the cache entry's compute cost. *)
type outcome = (Json.t * string option * float, exn) result

let compute_one cfg (w : work) : outcome =
  let t0 = Obs.time_ms () in
  let outcome =
    if cfg.obs_mode <> Obs_off then begin
      Obs.set_enabled true;
      (* enabling from disabled reset the stores: capture starts empty *)
      Fun.protect
        ~finally:(fun () -> Obs.set_enabled false)
        (fun () ->
          match w.w_compute () with
          | r ->
            let obs =
              Obs.summary_json
                ~normalised:(cfg.obs_mode = Obs_normalised)
                (Obs.snapshot ())
            in
            Ok (r, Some obs, Obs.time_ms () -. t0)
          | exception e -> Error e)
    end
    else
      match Obs.span "serve.request" w.w_compute with
      | r -> Ok (r, None, Obs.time_ms () -. t0)
      | exception e -> Error e
  in
  match (outcome, cfg.timeout_ms) with
  | Ok _, Some budget when Obs.time_ms () -. t0 > budget ->
    Error (Timeout (Obs.time_ms () -. t0))
  | _ -> outcome

(* --- waves ---

   A wave is the prepared form of a batch of pending requests: each slot
   is either already answerable (control errors, sheds, cache hits) or a
   cache miss awaiting the outcome of its key.  The three phases —
   {!prepare} (decode + cache lookup, arrival order), {!compute_and_store}
   (distinct misses fanned out over the domain pool, cache filled in
   first-arrival order) and {!finish_wave} (one response per slot, in
   arrival order) — are split so the mux event loop can merge the miss
   sets of several connections into one fan-out while each connection's
   responses stay in its own arrival order. *)

type slot =
  | S_done of string  (** rendered response line *)
  | S_miss of { id : Json.t; w : work }

type wave = { w_slots : slot list }

let prepare s entries =
  let slots =
    List.map
      (function
        | P_shed { id; op } ->
          Obs.incr "serve.error";
          S_done
            (Json.to_string
               (error_response ~id ~op:(Json.String op)
                  (err "overloaded"
                     (Printf.sprintf "work queue full (capacity %d)" s.cfg.queue))))
        | P_work { id; op; req } -> (
          match decode_work s.cfg op req with
          | w -> (
            match Store.find s.cfg.cache w.w_key with
            | Some payload ->
              Obs.incr "serve.ok";
              let pj = Json.parse payload in
              S_done
                (Json.to_string
                   (work_response ~id ~w ~cached:true
                      ~obs:(Option.bind (Json.member "obs" pj) Json.to_str)
                      (Option.value ~default:Json.Null (Json.member "result" pj))))
            | None -> S_miss { id; w })
          | exception e ->
            Obs.incr "serve.error";
            S_done
              (Json.to_string (error_response ~id ~op:(Json.String op) (err_of_exn e)))))
      entries
  in
  { w_slots = slots }

(* Distinct cache misses of a wave, first-arrival order; duplicates
   within the wave are computed once and share the result. *)
let wave_misses wave =
  let uniq = Hashtbl.create 8 in
  List.filter_map
    (function
      | S_miss { w; _ } when not (Hashtbl.mem uniq w.w_key) ->
        Hashtbl.add uniq w.w_key ();
        Some w
      | _ -> None)
    wave.w_slots

let compute_and_store cfg (works : work list) =
  let computed =
    if cfg.obs_mode <> Obs_off then List.map (compute_one cfg) works
    else
      List.map
        (function Ok r -> r | Error e -> Error e)
        (Par.try_map_list (fun w -> compute_one cfg w) works)
  in
  List.map2
    (fun (w : work) (outcome : outcome) ->
      (match outcome with
      | Ok (r, obs, ms) ->
        let payload =
          Json.Obj
            (("result", r)
            :: (match obs with Some o -> [ ("obs", Json.String o) ] | None -> []))
        in
        Store.store ~stage:"response" ~cost_ms:ms cfg.cache w.w_key
          (Json.to_string payload)
      | Error _ -> ());
      (w.w_key, outcome))
    works computed

let finish_wave ~find wave =
  List.map
    (function
      | S_done line -> line
      | S_miss { id; w } -> (
        match (find w.w_key : outcome option) with
        | Some (Ok (r, obs, _ms)) ->
          Obs.incr "serve.ok";
          Json.to_string (work_response ~id ~w ~cached:false ~obs r)
        | Some (Error e) ->
          Obs.incr "serve.error";
          Json.to_string (error_response ~id ~op:(Json.String w.w_op) (err_of_exn e))
        | None ->
          (* Unreachable when the driver resolves every registered key;
             kept structured so a driver bug cannot kill the daemon. *)
          Obs.incr "serve.error";
          Json.to_string
            (error_response ~id ~op:(Json.String w.w_op)
               (err "internal" "wave outcome missing"))))
    wave.w_slots

(* Synchronous resolution: the whole prepare/compute/finish cycle of one
   session's wave, used by the stdio driver and [run_lines]. *)
let resolve_serial s wave =
  let outs = compute_and_store s.cfg (wave_misses wave) in
  finish_wave ~find:(fun k -> List.assoc_opt k outs) wave

let take_wave s =
  let entries = List.rev s.pending in
  s.pending <- [];
  s.admitted <- 0;
  prepare s entries

let stats_result s =
  let st = Store.stats s.cfg.cache in
  let looked = st.Store.hits + st.Store.misses in
  let round_ms ms = Json.Int (int_of_float (Float.round ms)) in
  (* Only shards that hold (or evicted) something are listed: stats
     stay one readable line at the default shard count. *)
  let shard_json =
    List.filter_map
      (fun (i, (sh : Store.shard_stats)) ->
        if sh.Store.sh_entries > 0 || sh.Store.sh_evictions > 0 then
          Some
            (Json.Obj
               [
                 ("shard", Json.Int i);
                 ("entries", Json.Int sh.Store.sh_entries);
                 ("bytes", Json.Int sh.Store.sh_bytes);
                 ("ms", round_ms sh.Store.sh_ms);
                 ("evictions", Json.Int sh.Store.sh_evictions);
               ])
        else None)
      (List.mapi (fun i sh -> (i, sh)) st.Store.shards)
  in
  Json.Obj
    [
      ("requests", Json.Int s.requests);
      ("shed", Json.Int s.shed);
      ("batching", Json.Bool s.batching);
      ("queue_capacity", Json.Int s.cfg.queue);
      ( "cache",
        Json.Obj
          [
            ("hits", Json.Int st.Store.hits);
            ("misses", Json.Int st.Store.misses);
            ("stores", Json.Int st.Store.stores);
            ("evictions", Json.Int st.Store.evictions);
            ("corrupt", Json.Int st.Store.corrupt);
            ("entries", Json.Int st.Store.entries);
            ("retained_bytes", Json.Int st.Store.retained_bytes);
            ("retained_ms", round_ms st.Store.retained_ms);
            ("shards", Json.List shard_json);
            ( "hit_rate",
              Json.Float
                (if looked = 0 then 0.0
                 else float_of_int st.Store.hits /. float_of_int looked) );
          ] );
    ]

(* What a driver does with one input line: emit rendered response lines
   as-is, or resolve a wave first (serially here, or merged into a
   multi-connection fan-out by the mux) and emit its responses. *)
type event = Lines of string list | Wave of wave

(* [shed_work] is the driver's backpressure lever: when set, well-formed
   work ops are answered [overloaded] immediately instead of being
   computed, while control ops still go through (so a flooding client
   can still ping, read stats, or shut the batch down). *)
let feed_events ?(shed_work = false) s line =
  if s.stop then []
  else
    match Json.parse line with
    | exception (Json.Parse_error _ as e) ->
      Obs.incr "serve.error";
      [ Lines
          [ Json.to_string (error_response ~id:Json.Null ~op:Json.Null (err_of_exn e)) ]
      ]
    | req -> (
      let id =
        match Json.member "id" req with
        | Some id -> id
        | None ->
          s.seq <- s.seq + 1;
          Json.Int s.seq
      in
      let bad e =
        Obs.incr "serve.error";
        [ Lines [ Json.to_string (error_response ~id ~op:Json.Null (err_of_exn e)) ] ]
      in
      match req with
      | Json.Obj _ -> (
        match str_field req "op" with
        | exception e -> bad e
        | None -> bad (Bad_request "an op field is required")
        | Some op -> (
          match op with
          | "check" | "synth" | "sim" | "fuzz" ->
            s.requests <- s.requests + 1;
            Obs.incr "serve.requests";
            if shed_work then begin
              s.shed <- s.shed + 1;
              Obs.incr "serve.shed";
              Obs.incr "serve.error";
              [ Lines
                  [ Json.to_string
                      (error_response ~id ~op:(Json.String op)
                         (err "overloaded" "client is not draining responses")) ]
              ]
            end
            else if not s.batching then begin
              s.pending <- [ P_work { id; op; req } ];
              s.admitted <- 1;
              [ Wave (take_wave s) ]
            end
            else if s.admitted < s.cfg.queue then begin
              s.pending <- P_work { id; op; req } :: s.pending;
              s.admitted <- s.admitted + 1;
              []
            end
            else begin
              s.shed <- s.shed + 1;
              Obs.incr "serve.shed";
              s.pending <- P_shed { id; op } :: s.pending;
              []
            end
          | "ping" -> (
            match check_fields "ping" req [] with
            | () ->
              [ Lines
                  [ Json.to_string
                      (control_response ~id ~op (Json.Obj [ ("pong", Json.Bool true) ]))
                  ]
              ]
            | exception e -> bad e)
          | "stats" -> (
            match check_fields "stats" req [] with
            | () -> [ Lines [ Json.to_string (control_response ~id ~op (stats_result s)) ] ]
            | exception e -> bad e)
          | "batch" ->
            s.batching <- true;
            [ Lines
                [ Json.to_string
                    (control_response ~id ~op (Json.Obj [ ("batching", Json.Bool true) ]))
                ]
            ]
          | "flush" ->
            let admitted = s.admitted
            and shed = List.length s.pending - s.admitted in
            [ Wave (take_wave s);
              Lines
                [ Json.to_string
                    (control_response ~id ~op
                       (Json.Obj
                          [ ("flushed", Json.Int admitted); ("shed", Json.Int shed) ]))
                ]
            ]
          | "shutdown" ->
            let flushed = s.admitted in
            let wave = take_wave s in
            s.stop <- true;
            [ Wave wave;
              Lines
                [ Json.to_string
                    (control_response ~id ~op
                       (Json.Obj
                          [ ("stopping", Json.Bool true);
                            ("pending_flushed", Json.Int flushed) ]))
                ]
            ]
          | op -> bad (Bad_request (Printf.sprintf "unknown op %S" op))))
      | _ -> bad (Bad_request "request must be a JSON object"))

let finish_events s = if s.stop then [] else [ Wave (take_wave s) ]

let run_events s events =
  List.concat_map
    (function Lines ls -> ls | Wave w -> resolve_serial s w)
    events

let feed ?shed_work s line = run_events s (feed_events ?shed_work s line)
let finish s = run_events s (finish_events s)

let run_lines cfg lines =
  let s = session cfg in
  let responses =
    List.concat_map (fun line -> if s.stop then [] else feed s line) lines
  in
  responses @ finish s

(* --- drivers --- *)

(* Buffered line reading over a raw fd, interruptible by the signal
   flag: [input_line] would restart blocking reads across signals, and
   a drain-and-exit needs to observe them. *)
type reader = { fd : Unix.file_descr; buf : Buffer.t; mutable eof : bool }

let reader fd = { fd; buf = Buffer.create 4096; eof = false }

let rec next_line r ~stop =
  let data = Buffer.contents r.buf in
  match String.index_opt data '\n' with
  | Some i ->
    Buffer.clear r.buf;
    Buffer.add_string r.buf (String.sub data (i + 1) (String.length data - i - 1));
    `Line (String.sub data 0 i)
  | None ->
    if r.eof then
      if data = "" then `Eof
      else begin
        Buffer.clear r.buf;
        `Line data
      end
    else if stop () then `Interrupted
    else begin
      let chunk = Bytes.create 4096 in
      (match Unix.read r.fd chunk 0 4096 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | 0 -> r.eof <- true
      | n -> Buffer.add_subbytes r.buf chunk 0 n);
      next_line r ~stop
    end

let with_signals f =
  let flag = ref false in
  let install sg = Sys.signal sg (Sys.Signal_handle (fun _ -> flag := true)) in
  let old_int = install Sys.sigint in
  let old_term = install Sys.sigterm in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigint old_int;
      Sys.set_signal Sys.sigterm old_term)
    (fun () -> f (fun () -> !flag))

let run_stdio cfg =
  with_signals @@ fun stop ->
  let s = session cfg in
  let r = reader Unix.stdin in
  let emit lines =
    List.iter
      (fun l ->
        print_string l;
        print_newline ())
      lines;
    flush stdout
  in
  let rec loop () =
    if s.stop then 0
    else
      match next_line r ~stop with
      | `Line line ->
        emit (feed s line);
        loop ()
      | `Eof | `Interrupted ->
        emit (finish s);
        0
  in
  loop ()
