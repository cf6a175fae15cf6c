module Par = Rtcad_par.Par
module Obs = Rtcad_obs.Obs
module Stg = Rtcad_stg.Stg
module Stg_io = Rtcad_stg.Stg_io
module Transform = Rtcad_stg.Transform
module Sg = Rtcad_sg.Sg
module Engine = Rtcad_sg.Engine
module Csc = Rtcad_sg.Csc
module Symbolic = Rtcad_sg.Symbolic
module Bdd = Rtcad_logic.Bdd
module Assumption = Rtcad_rt.Assumption
module Generate = Rtcad_rt.Generate
module Prune = Rtcad_rt.Prune
module Nextstate = Rtcad_synth.Nextstate
module Implement = Rtcad_synth.Implement
module Lazy_cover = Rtcad_synth.Lazy_cover
module Emit = Rtcad_synth.Emit
module Conformance = Rtcad_verify.Conformance
module Netlist = Rtcad_netlist.Netlist

type user_assumption = (string * Stg.dir) * (string * Stg.dir)

type mode =
  | Si
  | Rt of {
      user : user_assumption list;
      allow_input_first : bool;
      allow_lazy : bool;
    }

let rt_default = Rt { user = []; allow_input_first = false; allow_lazy = true }

(* Stable textual identity of a mode, for content-addressed caching of
   flow results: two modes with the same fingerprint produce identical
   netlists on the same (canonical) specification.  User assumptions are
   kept in list order — order does not change the result, but
   normalizing here would hide a client-side difference for no gain. *)
let fingerprint = function
  | Si -> "si"
  | Rt { user; allow_input_first; allow_lazy } ->
    let dir = function Rtcad_stg.Stg.Rise -> "+" | Rtcad_stg.Stg.Fall -> "-" in
    let edge (s, d) = s ^ dir d in
    Printf.sprintf "rt;input_first=%b;lazy=%b;user=%s" allow_input_first
      allow_lazy
      (String.concat "," (List.map (fun (a, b) -> edge a ^ "<" ^ edge b) user))

type signal_result = {
  signal_name : string;
  impl : Implement.impl;
  literals : int;
  lazy_constraints : Assumption.t list;
}

(* What the reachability stage produced.  The explicit flow carries the
   graphs themselves; the symbolic flow never materializes one, so only
   the state counts survive (the BDDs are domain-local and dropped once
   synthesis is done).  A flow reconstructed from cached artifacts also
   carries only counts — the graphs were never rebuilt. *)
type reach =
  | Explicit_graphs of { sg_full : Sg.t; sg : Sg.t }
  | Symbolic_counts of { states_full : int; states_used : int }

type t = {
  mode : mode;
  stg : Stg.t;
  insertions : Csc.insertion list;
  reach : reach;
  assumptions : Assumption.t list;
  constraints : Assumption.t list;
  signals : signal_result list;
  netlist : Netlist.t;
}

exception Synthesis_failure of string

let fail fmt = Printf.ksprintf (fun s -> raise (Synthesis_failure s)) fmt

let sg_full t =
  match t.reach with
  | Explicit_graphs { sg_full; _ } -> sg_full
  | Symbolic_counts _ ->
    invalid_arg "Flow.sg_full: symbolic flow carries no explicit state graph"

let sg t =
  match t.reach with
  | Explicit_graphs { sg; _ } -> sg
  | Symbolic_counts _ ->
    invalid_arg "Flow.sg: symbolic flow carries no explicit state graph"

let num_states_full t =
  match t.reach with
  | Explicit_graphs { sg_full; _ } -> Sg.num_states sg_full
  | Symbolic_counts { states_full; _ } -> states_full

let num_states_used t =
  match t.reach with
  | Explicit_graphs { sg; _ } -> Sg.num_states sg
  | Symbolic_counts { states_used; _ } -> states_used

(* --- stage keys and artifacts ------------------------------------------ *)

(* Every stage of the flow is keyed by a content hash over everything
   that determines its output: the canonical [.g] text of the
   (dummy-contracted) specification — the same round-trip-stable printer
   identity the serve cache keys on — plus the mode fingerprint, the
   *resolved* engine, the state bound, and (for emission) the gate
   style.  The flow is deterministic in these inputs (the jobs-invariance
   contract), so keying a stage by its transitive inputs is equivalent to
   keying it by its immediate ones, and all five keys are computable up
   front without running anything.  [Sys.ocaml_version] joins the key
   material because stage artifacts are [Marshal] payloads, whose format
   is compiler-specific: entries written by a different compiler must
   simply never be found. *)
type keys = {
  normalize : string;
  encode : string;
  reach_key : string;
  covers : string;
  emit : string;
}

let resolved_style ~mode = function
  | Some s -> s
  | None -> (
    match mode with
    | Si -> Emit.Static_cmos
    | Rt _ -> Emit.Domino_cmos { footed = true })

let style_fingerprint = function
  | Emit.Static_cmos -> "static"
  | Emit.Domino_cmos { footed = true } -> "domino"
  | Emit.Domino_cmos { footed = false } -> "domino-unfooted"

let keys_of_canon ~mode ~sel ~emit_style ~max_states canon =
  let base =
    [
      Store.magic;
      Sys.ocaml_version;
      canon;
      fingerprint mode;
      (match sel with `Symbolic -> "symbolic" | `Explicit -> "explicit");
      (match max_states with None -> "unbounded" | Some n -> string_of_int n);
    ]
  in
  {
    normalize = Store.key [ Store.magic; "normalize"; canon ];
    encode = Store.key ("encode" :: base);
    reach_key = Store.key ("reach" :: base);
    covers = Store.key ("covers" :: base);
    emit =
      Store.key
        (("emit" :: base)
        @ [ style_fingerprint (resolved_style ~mode emit_style) ]);
  }

let stage_keys ?(mode = rt_default) ?(engine = Engine.Auto) ?emit_style
    ?max_states spec_stg =
  let stg0 = Transform.contract_dummies ~strict:false spec_stg in
  keys_of_canon ~mode
    ~sel:(Engine.select engine stg0)
    ~emit_style ~max_states (Stg_io.to_string stg0)

(* Stage artifacts, as stored: encode keeps the insertion list (the
   encoded STG is reproduced by replaying them — cheap, exact, and spared
   the hazards of round-tripping machine-generated place names through
   the parser); reach keeps the full state count; covers keeps everything
   the per-signal synthesis decided; emit keeps the netlist.  All are
   pure data (covers and netlists are cube lists and record arrays — no
   closures, no BDDs), so [Marshal] round-trips them. *)
type covers_art = {
  a_states_used : int;
  a_assumptions : Assumption.t list;
  a_used : Assumption.t list;
  a_signals : signal_result list;
}

type ctx = { store : Store.t; keys : keys }

let art_find ctx k =
  match Store.find ctx.store k with
  | None -> None
  | Some payload -> (
    (* The store already checksummed the payload; a decode failure here
       means a format-version skew that slipped past the keying and is
       treated as a miss. *)
    try Some (Marshal.from_string payload 0) with Failure _ -> None)

let art_store ctx ~stage ?cost_ms k v =
  Store.store ~stage ?cost_ms ctx.store k (Marshal.to_string v [])

(* --- shared stage bodies ----------------------------------------------- *)

let instantiate_user stg user =
  List.concat_map
    (fun (first, second) ->
      match Assumption.of_edges stg first second with
      | assumptions -> assumptions
      | exception Not_found ->
        fail "user assumption references unknown signal (%s/%s)" (fst first) (fst second))
    user

(* [fast] is used inside the state-encoding search, where the assumption
   generator runs once per candidate insertion: fewer randomized runs and
   shorter executions keep the search tractable.  The final assumption set
   is always regenerated at full strength.  The concurrent pairs are the
   only thing the generator needs from a reachability analysis. *)
let gather_assumptions (type a v) ?(fast = false) ~mode
    (engine : (a, v) Engine.impl) (a : a) =
  let module E = (val engine) in
  match mode with
  | Si -> []
  | Rt { user; allow_input_first; _ } ->
    let stg = E.stg a in
    let pairs = E.concurrent_pairs a in
    let automatic =
      if fast then
        let nt = Rtcad_stg.Petri.num_transitions (Stg.net stg) in
        Generate.automatic_of_pairs ~allow_input_first ~runs:2 ~steps:(20 * nt)
          stg pairs
      else Generate.automatic_of_pairs ~allow_input_first stg pairs
    in
    instantiate_user stg user @ automatic

(* Implementation selection: candidates in preference order, first one
   passing the correctness checks with minimal literal cost wins.  Lazy
   cover relaxation needs per-state successor walks, so it is tried only
   when the engine's view is an explicit graph. *)
let choose_impl (type a v) ~mode (engine : (a, v) Engine.impl) (view : v)
    (spec : Nextstate.spec) =
  let module E = (val engine) in
  let complex = Implement.synthesize spec Implement.Complex_gate in
  let gc = Implement.synthesize spec Implement.Generalized_c in
  let base =
    [ (complex, ([] : Assumption.t list)); (gc, []) ]
  in
  let lazy_candidates =
    match (mode, E.graph view) with
    | Rt { allow_lazy = true; _ }, Some sg ->
      let r = Lazy_cover.relax sg spec gc in
      if r.Lazy_cover.constraints = [] then []
      else [ (r.Lazy_cover.impl, r.Lazy_cover.constraints) ]
    | _ -> []
  in
  let acceptable (impl, _) =
    match mode with
    | Si ->
      Implement.respects_spec spec impl && Implement.monotonic engine view spec impl
    | Rt _ -> (
      match impl with
      | Implement.Complex _ -> Implement.respects_spec spec impl
      | Implement.Gc _ -> true)
  in
  let candidates = List.filter acceptable (base @ lazy_candidates) in
  match
    List.sort
      (fun (a, _) (b, _) -> Int.compare (Implement.literal_cost a) (Implement.literal_cost b))
      candidates
  with
  | [] ->
    fail "no acceptable implementation for signal %s"
      (Stg.signal_name (E.view_stg view) spec.Nextstate.signal)
  | best :: _ -> best

(* The encode stage: state-signal insertion via the CSC search, or — on
   a stage-key hit — an exact replay of the cached winning insertions.
   The search is deterministic in its inputs (jobs-invariant candidate
   enumeration and tie-breaks), so replaying its decisions reproduces
   the encoded STG bit for bit without re-running any analysis.  A
   search also returns the analysis of the encoded STG that its last
   conflict check ran; a replay has none. *)
let run_encode ?ctx ~resolve stg0 =
  let cached = Option.bind ctx (fun c -> art_find c c.keys.encode) in
  match cached with
  | Some (ins : Csc.insertion list) ->
    Obs.incr "flow.cache.encode_hit";
    (List.fold_left Csc.apply stg0 ins, ins, None)
  | None -> (
    let result, ms = Obs.timed "flow.encode" resolve in
    match result with
    | Some (stg, ins, a) ->
      Option.iter
        (fun c -> art_store c ~stage:"encode" ~cost_ms:ms c.keys.encode ins)
        ctx;
      (stg, ins, Some a)
    | None -> fail "state encoding failed: CSC conflicts could not be resolved")

(* Emission, back-annotation and the conformance gate — identical for
   both engines (and for the cached-covers path) once the per-signal
   implementations are chosen.  [signals]/[pairs] carry the chosen
   cover-based implementations; everything here is engine-free. *)
let finish ?ctx ~mode ~stg ~insertions ~reach ~assumptions ~used ~covers_ms
    ~emit_style signals =
  Option.iter
    (fun c ->
      art_store c ~stage:"covers" ~cost_ms:covers_ms c.keys.covers
        {
          a_states_used =
            (match reach with
            | Explicit_graphs { sg; _ } -> Sg.num_states sg
            | Symbolic_counts { states_used; _ } -> states_used);
          a_assumptions = assumptions;
          a_used = used;
          a_signals = signals;
        })
    ctx;
  let signal_index name =
    let ns = Stg.num_signals stg in
    let rec go u =
      if u >= ns then fail "unknown signal %s in cached covers" name
      else if String.equal (Stg.signal_name stg u) name then u
      else go (u + 1)
    in
    go 0
  in
  let (netlist : Netlist.t), emit_ms =
    Obs.timed "flow.emit" @@ fun () ->
    (* Degenerate covers (constant drive for an output) are refusals,
       not crashes: the gate library cannot realize them. *)
    try
      Emit.emit ~style:emit_style stg
        (List.map (fun s -> (signal_index s.signal_name, s.impl)) signals)
    with Invalid_argument msg -> fail "emission refused: %s" msg
  in
  let constraints =
    List.sort_uniq Assumption.compare
      (used @ List.concat_map (fun s -> s.lazy_constraints) signals)
  in
  (* Close the Figure-2 loop: the emitted netlist must conform to the
     encoded specification — untimed in SI mode, under the generated
     assumption set in RT mode.  Without this gate, specifications with
     concurrency between unrelated cycles can yield covers whose
     cross-cycle terms glitch in interleavings the assumption vocabulary
     cannot forbid; refusing turns a silently hazardous circuit into an
     explicit synthesis failure. *)
  (match
     Obs.span "flow.verify" (fun () ->
         Conformance.check
           ~constraints:(match mode with Si -> [] | Rt _ -> assumptions)
           ~circuit:netlist ~spec:stg ())
   with
  | exception Conformance.Bound_exceeded _ -> ()
  | r ->
    if not r.Conformance.ok then
      fail "emitted netlist fails its conformance self-check (%d failure(s))"
        (List.length r.Conformance.failures));
  Option.iter
    (fun c -> art_store c ~stage:"emit" ~cost_ms:emit_ms c.keys.emit netlist)
    ctx;
  { mode; stg; insertions; reach; assumptions; constraints; signals; netlist }

let signals_of_chosen stg chosen =
  List.map
    (fun ((spec : Nextstate.spec), (impl, lazy_constraints)) ->
      {
        signal_name = Stg.signal_name stg spec.Nextstate.signal;
        impl;
        literals = Implement.literal_cost impl;
        lazy_constraints;
      })
    chosen

(* --- the pipeline --------------------------------------------------------- *)

(* The Figure-2 flow on one reachability engine.  State encoding,
   assumption generation, pruning, next-state extraction and the
   monotonicity checks all run on the engine's analysis and views; on
   the symbolic engine no explicit state graph is ever materialized,
   which is what lets specifications beyond the explicit bound reach a
   netlist.  The engines differ only in two capabilities: lazy cover
   relaxation needs an explicit graph ([E.graph]), and per-signal
   synthesis fans out across domains only when the view may cross them
   ([E.portable]). *)
let run (type a v) (engine : (a, v) Engine.impl) ?ctx ~mode ~emit_style
    ?max_states stg0 =
  let module E = (val engine) in
  let csc_mode =
    match mode with Si -> Csc.Speed_independent | Rt _ -> Csc.Timing_aware
  in
  (* RT mode takes CSC verdicts on the assumption-pruned space; SI mode
     on the whole one. *)
  let rt_view =
    match mode with
    | Si -> None
    | Rt _ ->
      Some
        (fun a ->
          (Prune.apply_consistent engine a
             (gather_assumptions ~fast:true ~mode engine a))
            .Prune.pruned)
  in
  let stg, insertions, encoded =
    run_encode ?ctx
      ~resolve:(fun () ->
        Csc.resolve_all ~mode:csc_mode ?view:rt_view ?max_states engine stg0)
      stg0
  in
  (* The encoding search hands over the analysis its last conflict check
     took of the encoded STG.  Only a replayed encoding analyses here: on
     the symbolic engine an edited spec re-seeds the fixpoint from the
     most recent compatible reachable set (delta reachability) instead
     of starting from the initial state. *)
  let full, reach_ms =
    Obs.timed "flow.reach" (fun () ->
        match encoded with Some a -> a | None -> E.analyze ?max_states stg)
  in
  let states_full = E.num_states full in
  Option.iter
    (fun c -> art_store c ~stage:"reach" ~cost_ms:reach_ms c.keys.reach_key states_full)
    ctx;
  Obs.set_gauge "flow.sg_states_full" (float_of_int states_full);
  let assumptions, assume_ms =
    Obs.timed "flow.assume" (fun () -> gather_assumptions ~mode engine full)
  in
  let (view, used), prune_ms =
    match mode with
    | Si -> ((E.unrestricted full, []), 0.0)
    | Rt _ ->
      let r, ms =
        Obs.timed "flow.prune" (fun () -> Prune.apply_consistent engine full assumptions)
      in
      ((r.Prune.pruned, r.Prune.used), ms)
  in
  let states_used = E.view_states view in
  Obs.set_gauge "flow.sg_states_used" (float_of_int states_used);
  Obs.set_gauge "flow.assumptions" (float_of_int (List.length assumptions));
  if E.has_csc view then fail "CSC conflicts remain after encoding";
  (match mode with
  | Si ->
    if not (E.output_persistent full) then
      fail "specification is not output-persistent: no SI implementation"
  | Rt _ -> ());
  (* The net's lazy reverse-flow tables are forced first ([Lazy_cover]
     reads them through [Petri.producers]), and each signal builds its
     own [Nextstate] spec so the BDDs it manipulates stay on the domain
     that runs it: after a parallel join only the spec's signal index
     and the chosen cover-based implementation are read, never the
     spec's BDD fields. *)
  Rtcad_stg.Petri.prepare (Stg.net stg);
  let map f xs = if E.portable then Par.map_list f xs else List.map f xs in
  let chosen, synth_ms =
    Obs.timed "flow.synth" @@ fun () ->
    map
      (fun u ->
        (* Cover extraction is structure-sensitive: re-establish the
           canonical variable order in case an earlier symbolic analysis
           left a sifted one behind on this domain. *)
        Bdd.restore_order ();
        let spec = Nextstate.of_view engine view u in
        (* BDD sizes are recorded here, on the domain that owns them.
           The counts are structural (per signal), so their sum is
           jobs-invariant. *)
        Obs.incr ~by:(Bdd.node_count spec.Nextstate.on_set) "synth.bdd_nodes.on_set";
        Obs.incr ~by:(Bdd.node_count spec.Nextstate.off_set) "synth.bdd_nodes.off_set";
        (spec, choose_impl ~mode engine view spec))
      (Stg.non_input_signals stg)
  in
  let reach =
    match (E.graph (E.unrestricted full), E.graph view) with
    | Some sg_full, Some sg -> Explicit_graphs { sg_full; sg }
    | _ -> Symbolic_counts { states_full; states_used }
  in
  finish ?ctx ~mode ~stg ~insertions ~reach ~assumptions ~used
    ~covers_ms:(assume_ms +. prune_ms +. synth_ms)
    ~emit_style (signals_of_chosen stg chosen)

(* --- cached-flow reconstruction ---------------------------------------- *)

(* With every upstream stage artifact present, a flow value is rebuilt
   without running any analysis: the encoded STG by replaying the cached
   insertions, the counts/assumptions/covers from their artifacts, and
   the netlist either from its artifact (a full hit — nothing runs at
   all) or, when only the emission key misses (e.g. a new gate style
   over decided covers), by re-emitting and re-running the conformance
   gate.  Reconstructed flows carry [Symbolic_counts] regardless of
   engine — the graphs were never rebuilt. *)
let reconstruct ~ctx ~mode ~emit_style stg0 =
  match
    ( art_find ctx ctx.keys.encode,
      art_find ctx ctx.keys.reach_key,
      art_find ctx ctx.keys.covers )
  with
  | Some (ins : Csc.insertion list), Some (states_full : int), Some cov ->
    let stg = List.fold_left Csc.apply stg0 ins in
    let reach =
      Symbolic_counts { states_full; states_used = cov.a_states_used }
    in
    Some
      (match art_find ctx ctx.keys.emit with
      | Some (netlist : Netlist.t) ->
        Obs.incr "flow.cache.flow_hit";
        let constraints =
          List.sort_uniq Assumption.compare
            (cov.a_used
            @ List.concat_map (fun s -> s.lazy_constraints) cov.a_signals)
        in
        {
          mode;
          stg;
          insertions = ins;
          reach;
          assumptions = cov.a_assumptions;
          constraints;
          signals = cov.a_signals;
          netlist;
        }
      | None ->
        Obs.incr "flow.cache.covers_hit";
        finish ~ctx ~mode ~stg ~insertions:ins ~reach
          ~assumptions:cov.a_assumptions ~used:cov.a_used ~covers_ms:0.0
          ~emit_style cov.a_signals)
  | _ -> None

let synthesize ?cache ?(mode = rt_default) ?(engine = Engine.Auto) ?emit_style
    ?max_states spec_stg =
  (* A pipeline run on the symbolic engine publishes the BDD table's
     gauges once it has ended, outside the flow's span: counting the
     table walks all of it. *)
  let symbolic_run = ref false in
  Fun.protect
    ~finally:(fun () -> if !symbolic_run then Symbolic.publish_table_gauges ())
  @@ fun () ->
  Obs.span "flow.synthesize" @@ fun () ->
  let stg0 = Transform.contract_dummies ~strict:false spec_stg in
  let sel = Engine.select engine stg0 in
  let emit_style = resolved_style ~mode emit_style in
  (* The [.g] printer refuses nets whose marking it cannot express; a
     spec with no canonical text has no stage keys and runs uncached. *)
  let ctx =
    match cache with
    | None -> None
    | Some store -> (
      match Stg_io.to_string stg0 with
      | canon ->
        Some
          {
            store;
            keys =
              keys_of_canon ~mode ~sel ~emit_style:(Some emit_style) ~max_states
                canon;
          }
      | exception Failure _ ->
        Obs.incr "flow.cache.unkeyed";
        None)
  in
  match Option.bind ctx (fun ctx -> reconstruct ~ctx ~mode ~emit_style stg0) with
  | Some t -> t
  | None -> (
    match Engine.implementation sel with
    | Engine.Any impl ->
      symbolic_run := sel = `Symbolic;
      run impl ?ctx ~mode ~emit_style ?max_states stg0)

let pp_report ppf t =
  let stg = t.stg in
  Format.fprintf ppf "@[<v>mode: %s@,"
    (match t.mode with Si -> "speed-independent" | Rt _ -> "relative timing");
  Format.fprintf ppf "states: %d full, %d used for synthesis@," (num_states_full t)
    (num_states_used t);
  List.iter
    (fun ins -> Format.fprintf ppf "inserted: %a@," (Csc.pp_insertion stg) ins)
    t.insertions;
  List.iter
    (fun s ->
      Format.fprintf ppf "%s = %a   (%d literals)@," s.signal_name
        (Implement.pp stg) s.impl s.literals)
    t.signals;
  if t.constraints <> [] then begin
    Format.fprintf ppf "required timing constraints:@,";
    List.iter (fun a -> Format.fprintf ppf "  %a@," (Assumption.pp stg) a) t.constraints
  end;
  Format.fprintf ppf "netlist: %d gates, %d transistors@]"
    (Rtcad_netlist.Netlist.gate_count t.netlist)
    (Rtcad_netlist.Netlist.transistors t.netlist)
