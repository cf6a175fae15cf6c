module Bitset = Rtcad_util.Bitset
module Rng = Rtcad_util.Rng
module Stg = Rtcad_stg.Stg
module Sg = Rtcad_sg.Sg
module Encoding = Rtcad_sg.Encoding
module Petri = Rtcad_stg.Petri
module Netlist = Rtcad_netlist.Netlist
module Sim = Rtcad_netlist.Sim
module Flow = Rtcad_core.Flow
module Check = Rtcad_core.Check
module Store = Rtcad_core.Store
module Symbolic = Rtcad_sg.Symbolic
module Transform = Rtcad_stg.Transform
module Bdd = Rtcad_logic.Bdd
module Engine = Rtcad_sg.Engine
module Timed_sim = Rtcad_rt.Timed_sim
module Generate = Rtcad_rt.Generate
module Assumption = Rtcad_rt.Assumption

type finding = { oracle : string; detail : string }
type verdict = Pass | Fail of finding | Skip of string

let fail oracle fmt = Format.kasprintf (fun detail -> Fail { oracle; detail }) fmt

let pp_verdict ppf = function
  | Pass -> Format.fprintf ppf "pass"
  | Skip reason -> Format.fprintf ppf "skip (%s)" reason
  | Fail f -> Format.fprintf ppf "FAIL [%s] %s" f.oracle f.detail

(* ------------------------------------------------------------------ *)
(* Bitset: packed kernel vs bool-list model                            *)
(* ------------------------------------------------------------------ *)

let diff_bitset ?(ops = 60) rng =
  let oracle = "bitset-diff" in
  let cap = 1 + Rng.int rng 192 in
  let random_elems () =
    List.init (Rng.int rng (cap + 1)) (fun _ -> Rng.int rng cap)
  in
  (* The main pair mutates; the auxiliary pair feeds binary operations
     and predicates.  [of_list] itself is under test via the aux set. *)
  let fast = ref (Bitset.create cap) and model = ref (Ref_bitset.create cap) in
  let mk_aux () =
    let xs = random_elems () in
    ( Bitset.of_list cap xs,
      List.fold_left Ref_bitset.add (Ref_bitset.create cap) xs )
  in
  let aux = ref (mk_aux ()) in
  let result = ref Pass in
  let step op =
    if !result = Pass then begin
      let desc =
        match op with
        | 0 ->
          let i = Rng.int rng cap in
          fast := Bitset.add !fast i;
          model := Ref_bitset.add !model i;
          Printf.sprintf "add %d" i
        | 1 ->
          let i = Rng.int rng cap in
          fast := Bitset.remove !fast i;
          model := Ref_bitset.remove !model i;
          Printf.sprintf "remove %d" i
        | 2 ->
          let i = Rng.int rng cap and v = Rng.bool rng in
          fast := Bitset.set !fast i v;
          model := Ref_bitset.set !model i v;
          Printf.sprintf "set %d %b" i v
        | 3 ->
          let af, am = !aux in
          fast := Bitset.union !fast af;
          model := Ref_bitset.union !model am;
          "union"
        | 4 ->
          let af, am = !aux in
          fast := Bitset.inter !fast af;
          model := Ref_bitset.inter !model am;
          "inter"
        | 5 ->
          let af, am = !aux in
          fast := Bitset.diff !fast af;
          model := Ref_bitset.diff !model am;
          "diff"
        | 6 ->
          (* Builder batch: copy, flip a handful of bits, freeze. *)
          let b = Bitset.Builder.of_set !fast in
          let flips = List.init (1 + Rng.int rng 8) (fun _ -> (Rng.int rng cap, Rng.bool rng)) in
          List.iter (fun (i, v) -> Bitset.Builder.set b i v) flips;
          fast := Bitset.Builder.freeze b;
          model := List.fold_left (fun m (i, v) -> Ref_bitset.set m i v) !model flips;
          "builder batch"
        | _ ->
          aux := mk_aux ();
          "fresh aux"
      in
      let af, am = !aux in
      let i = Rng.int rng cap in
      let flip_model = Ref_bitset.set am i (not (Ref_bitset.mem am i)) in
      if not (Ref_bitset.agrees !model !fast) then
        result := fail oracle "after %s (cap %d): observables diverge" desc cap
      else if not (Ref_bitset.agrees am af) then
        result := fail oracle "aux set after %s (cap %d): observables diverge" desc cap
      else if Bitset.subset !fast af <> Ref_bitset.subset !model am then
        result := fail oracle "after %s (cap %d): subset disagrees" desc cap
      else if Bitset.disjoint !fast af <> Ref_bitset.disjoint !model am then
        result := fail oracle "after %s (cap %d): disjoint disagrees" desc cap
      else if Bitset.equal !fast af <> Ref_bitset.equal !model am then
        result := fail oracle "after %s (cap %d): equal disagrees" desc cap
      else if (Bitset.compare !fast af = 0) <> Ref_bitset.equal !model am then
        result := fail oracle "after %s (cap %d): compare-zero disagrees" desc cap
      else if Bitset.equal !fast af && Bitset.hash !fast <> Bitset.hash af then
        result := fail oracle "after %s (cap %d): equal sets hash differently" desc cap
      else if Bitset.equal_flip !fast af i <> Ref_bitset.equal !model flip_model then
        result := fail oracle "after %s (cap %d): equal_flip %d disagrees" desc cap i
      else if Bitset.cardinal (Bitset.union !fast af)
              + Bitset.cardinal (Bitset.inter !fast af)
              <> Bitset.cardinal !fast + Bitset.cardinal af
      then result := fail oracle "after %s (cap %d): inclusion-exclusion broken" desc cap
    end
  in
  for _ = 1 to ops do
    step (Rng.int rng 8)
  done;
  !result

(* ------------------------------------------------------------------ *)
(* State graphs: optimized builder vs textbook BFS                     *)
(* ------------------------------------------------------------------ *)

let fast_sg_result ?max_states stg =
  match Sg.build ?max_states stg with
  | sg -> Ref_sg.Summary (Ref_sg.summary_of_fast sg)
  | exception Sg.Inconsistent msg -> Ref_sg.Inconsistent msg
  | exception Sg.Too_large _ -> Ref_sg.Too_large
  | exception Petri.Unsafe p -> Ref_sg.Unsafe p

let first_diff xs ys =
  let rec go = function
    | x :: xs', y :: ys' -> if x = y then go (xs', ys') else Some (x, y)
    | x :: _, [] -> Some (x, "<missing>")
    | [], y :: _ -> Some ("<missing>", y)
    | [], [] -> None
  in
  go (xs, ys)

let diff_sg ?(fast = fun stg -> fast_sg_result stg) stg =
  let oracle = "sg-diff" in
  let reference = Ref_sg.explore stg in
  let fast_r = fast stg in
  if Ref_sg.equal_result reference fast_r then Pass
  else
    match (reference, fast_r) with
    | Ref_sg.Summary r, Ref_sg.Summary f ->
      let where =
        if r.Ref_sg.num_states <> f.Ref_sg.num_states then
          Printf.sprintf "state count %d vs %d" r.Ref_sg.num_states f.Ref_sg.num_states
        else
          match
            ( first_diff r.Ref_sg.codes f.Ref_sg.codes,
              first_diff r.Ref_sg.edges f.Ref_sg.edges )
          with
          | Some (a, b), _ -> Printf.sprintf "codes %s vs %s" a b
          | None, Some (a, b) -> Printf.sprintf "edges %s vs %s" a b
          | None, None -> "deadlocks or edge count"
      in
      fail oracle "reference (%a) vs optimized (%a): %s" Ref_sg.pp_result reference
        Ref_sg.pp_result fast_r where
    | _ ->
      fail oracle "reference says %a, optimized says %a" Ref_sg.pp_result reference
        Ref_sg.pp_result fast_r

(* ------------------------------------------------------------------ *)
(* Assumption generation: engines' pairs, indexed gaps vs list scans   *)
(* ------------------------------------------------------------------ *)

let diff_assumptions ~seed stg =
  let oracle = "assumptions" in
  match Sg.build stg with
  | exception (Sg.Inconsistent _ | Sg.Too_large _ | Petri.Unsafe _) ->
    Skip "no state graph"
  | sg -> (
    let module X = (val Engine.explicit) in
    let pairs = X.concurrent_pairs sg in
    let sym_pairs = Symbolic.concurrent_pairs (Symbolic.analyze stg) in
    let name = Petri.transition_name (Stg.net stg) in
    let nt = Petri.num_transitions (Stg.net stg) in
    let gap_str = function None -> "none" | Some g -> Printf.sprintf "%h" g in
    (* Three jittered runs and one without jitter, whose exact ties
       (zero-delay dummies) make episodes that merely touch. *)
    let traces =
      List.init 4 (fun k ->
          Timed_sim.run
            ~jitter:(if k < 3 then 0.05 else 0.0)
            ~seed:(seed + k) ~steps:(40 * nt) stg)
    in
    let gap_mismatch trace =
      let ix = Timed_sim.index trace in
      let rec go p =
        if p >= nt * nt then None
        else
          let first = p / nt and second = p mod nt in
          let fast = Timed_sim.gap ix ~first ~second
          and reference = Ref_rt.min_gap trace ~first ~second in
          if Option.equal Float.equal fast reference then go (p + 1)
          else Some (first, second, fast, reference)
      in
      go 0
    in
    let generated allow_input_first =
      ( allow_input_first,
        Generate.automatic_of_pairs ~allow_input_first stg pairs,
        Ref_rt.automatic_of_pairs ~allow_input_first stg pairs )
    in
    if pairs <> sym_pairs then
      fail oracle "concurrent pairs: explicit %d vs symbolic %d" (List.length pairs)
        (List.length sym_pairs)
    else
      match List.find_map gap_mismatch traces with
      | Some (first, second, fast, reference) ->
        fail oracle "gap %s -> %s: indexed %s vs reference %s" (name first)
          (name second) (gap_str fast) (gap_str reference)
      | None -> (
        match
          List.find_opt
            (fun (_, fast, reference) -> not (List.equal Assumption.equal fast reference))
            [ generated false; generated true ]
        with
        | Some (allow_input_first, fast, reference) ->
          fail oracle "allow_input_first=%b: generated %d assumption(s), reference %d"
            allow_input_first (List.length fast) (List.length reference)
        | None -> Pass))

(* ------------------------------------------------------------------ *)
(* Event simulation: allocation-free kernel vs sorted-agenda model     *)
(* ------------------------------------------------------------------ *)

let diff_sim rng =
  let oracle = "sim-diff" in
  let nl = Gen.gen_netlist rng in
  let stim = Gen.gen_stimuli rng nl in
  let until = Gen.horizon stim in
  let run_fast () =
    let sim = Sim.create nl in
    List.iter (fun (net, v, at) -> Sim.drive sim net v ~after:at) stim;
    Sim.run sim ~until;
    let values = List.init (Netlist.num_nets nl) (Sim.value sim) in
    (values, Ref_sim.canonical_trace (Sim.trace sim))
  in
  let run_ref () =
    let sim = Ref_sim.create nl in
    List.iter (fun (net, v, at) -> Ref_sim.drive sim net v ~after:at) stim;
    Ref_sim.run sim ~until;
    let values = List.init (Netlist.num_nets nl) (Ref_sim.value sim) in
    (values, Ref_sim.canonical_trace (Ref_sim.trace sim))
  in
  match (run_fast (), run_ref ()) with
  | exception Sim.Oscillation msg -> fail oracle "optimized kernel oscillates: %s" msg
  | exception Failure msg -> fail oracle "reference simulator oscillates: %s" msg
  | (fv, ft), (rv, rt) ->
    if fv <> rv then
      let net =
        match List.find_opt (fun n -> List.nth fv n <> List.nth rv n)
                (List.init (Netlist.num_nets nl) Fun.id) with
        | Some n -> Netlist.net_name nl n
        | None -> "?"
      in
      fail oracle "final value of %s disagrees (%d gates)" net (Netlist.gate_count nl)
    else if ft <> rt then begin
      match first_diff (List.map (fun (at, n, v) ->
                            Printf.sprintf "%.3f %s=%b" at (Netlist.net_name nl n) v) ft)
                       (List.map (fun (at, n, v) ->
                            Printf.sprintf "%.3f %s=%b" at (Netlist.net_name nl n) v) rt)
      with
      | Some (a, b) -> fail oracle "trace diverges: optimized %s vs reference %s" a b
      | None -> fail oracle "trace diverges (lengths %d vs %d)" (List.length ft) (List.length rt)
    end
    else Pass

(* ------------------------------------------------------------------ *)
(* Incremental synthesis: delta ≡ scratch under edit replay            *)
(* ------------------------------------------------------------------ *)

(* One synthesis outcome, flattened to comparable text: the full report
   (state counts, insertions, per-signal equations, constraints) plus
   the printed netlist on success, the failure class and message
   otherwise.  Two pipelines agree iff these strings are equal. *)
let flow_outcome ?cache ?max_states ~mode ~engine stg =
  match Flow.synthesize ?cache ?max_states ~mode ~engine stg with
  | r ->
    Format.asprintf "ok:%a@.%a" Flow.pp_report r Netlist.pp r.Flow.netlist
  | exception Flow.Synthesis_failure m -> "synthesis-failure: " ^ m
  | exception Sg.Inconsistent m -> "inconsistent: " ^ m
  | exception Sg.Too_large n -> Printf.sprintf "too-large: %d" n
  | exception Petri.Unsafe p -> Printf.sprintf "unsafe: place %d" p

let analysis_outcome ?max_states stg0 =
  match Symbolic.analyze_cached ?max_states stg0 with
  | sym -> Ok sym
  | exception Sg.Inconsistent m -> Error ("inconsistent: " ^ m)
  | exception Sg.Too_large n -> Error (Printf.sprintf "too-large: %d" n)
  | exception Petri.Unsafe p -> Error (Printf.sprintf "unsafe: place %d" p)

(* Replay an edit script, and at every step (including the unedited
   base) run the same specification through three pipelines:

   - delta: with the artifact store and whatever the in-process analysis
     pool retained from earlier steps — stage-key lookups, encode
     replay, and delta-seeded symbolic reachability all fire here;
   - warm: immediately again with the same store — the full-hit
     reconstruction path (no analysis runs at all);
   - scratch: cleared pool, cold operation caches, no store.

   All three must produce byte-identical reports/netlists or identical
   failure verdicts.  Separately, the pooled (possibly seeded) symbolic
   analysis of each step's specification is compared against a
   from-scratch fixpoint for a bit-identical reachable state set. *)
let diff_incremental ?(engine = Rtcad_sg.Engine.Auto) base edits =
  let oracle = "incremental" in
  let store = Store.create () in
  let mode_of toggled =
    Flow.Rt { user = []; allow_input_first = toggled; allow_lazy = true }
  in
  let rec steps stg toggled step edits =
    let mode = mode_of toggled in
    let delta = flow_outcome ~cache:store ~mode ~engine stg in
    let warm = flow_outcome ~cache:store ~mode ~engine stg in
    let stg0 = Transform.contract_dummies ~strict:false stg in
    let warm_sym = analysis_outcome stg0 in
    Symbolic.Seeds.clear ();
    Bdd.clear_caches ();
    let scratch = flow_outcome ~mode ~engine stg in
    let cold_sym = analysis_outcome stg0 in
    if delta <> scratch then
      fail oracle "step %d: delta vs scratch diverge@,delta:   %s@,scratch: %s"
        step delta scratch
    else if warm <> scratch then
      fail oracle
        "step %d: cache reconstruction vs scratch diverge@,warm:    %s@,scratch: %s"
        step warm scratch
    else
      match (warm_sym, cold_sym) with
      | Ok w, Ok c
        when (not (Symbolic.equal_reachable w c))
             || Symbolic.num_states w <> Symbolic.num_states c ->
        fail oracle
          "step %d: seeded reachable set differs from scratch (%d vs %d states)"
          step (Symbolic.num_states w) (Symbolic.num_states c)
      | Error w, Error c when w <> c ->
        fail oracle "step %d: analysis verdicts diverge: %s vs %s" step w c
      | (Ok _, Error _ | Error _, Ok _) ->
        fail oracle "step %d: seeded analysis and scratch analysis disagree on %s"
          step
          (match warm_sym with Ok _ -> "failure (seeded passed)" | _ -> "success (seeded failed)")
      | _ -> (
        match edits with
        | [] -> Pass
        | e :: rest ->
          let stg = Gen.apply_edit stg e in
          let toggled =
            match e with Gen.Toggle_assumption -> not toggled | _ -> toggled
          in
          steps stg toggled (step + 1) rest)
  in
  (* The battery owns the pool and the caches for its duration. *)
  Symbolic.Seeds.clear ();
  Bdd.clear_caches ();
  let verdict = steps base false 0 edits in
  Symbolic.Seeds.clear ();
  verdict

(* ------------------------------------------------------------------ *)
(* Whole-flow invariants (Figure 2 closed loop)                        *)
(* ------------------------------------------------------------------ *)

let flow_invariants stg =
  let oracle = "flow" in
  match Flow.synthesize ~mode:Flow.rt_default stg with
  | exception Flow.Synthesis_failure msg -> Skip ("synthesis: " ^ msg)
  | exception Sg.Too_large _ -> Skip "state graph too large"
  | result ->
    if Encoding.has_csc (Flow.sg result) then
      fail oracle "CSC conflicts remain in the encoded, reduced state graph"
    else begin
      (* The encoded STG (with inserted state signals) must still agree
         with the textbook reachability analysis. *)
      match diff_sg result.Flow.stg with
      | Fail f -> Fail { f with detail = "encoded STG: " ^ f.detail }
      | Skip _ | Pass -> (
        match Check.conformance ~constraints:result.Flow.constraints result with
        | exception Rtcad_verify.Conformance.Bound_exceeded _ ->
          Skip "conformance bound exceeded"
        | r when r.Rtcad_verify.Conformance.ok -> Pass
        | _ -> (
          match Check.minimal_constraints result with
          | minimal ->
            fail oracle
              "netlist needs %d constraint(s) beyond the %d back-annotated ones"
              (List.length minimal)
              (List.length result.Flow.constraints)
          | exception Rtcad_verify.Rt_verify.Not_verifiable ->
            fail oracle "netlist does not conform even under all proposed assumptions"))
    end
