module Stg = Rtcad_stg.Stg
module Cube = Rtcad_logic.Cube
module Cover = Rtcad_logic.Cover
module Netlist = Rtcad_netlist.Netlist
module Gate = Rtcad_netlist.Gate
module Implement = Rtcad_synth.Implement
module Emit = Rtcad_synth.Emit
module Conformance = Rtcad_verify.Conformance

let gate_style = function
  | Emit.Static_cmos -> Gate.Static
  | Emit.Domino_cmos { footed } -> Gate.Domino { footed }

(* Balanced tree of [func] gates over (net, neg) inputs, fan-in <= k. *)
let rec tree nl style ~k func fresh ins =
  if List.length ins <= k then
    match ins with
    | [ single ] -> single
    | _ ->
      let g = Gate.make ~style func ~fanin:(List.length ins) in
      (Netlist.add_gate nl g ins (fresh ()), false)
  else begin
    let rec chunks acc current n = function
      | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
      | x :: rest ->
        if n = k then chunks (List.rev current :: acc) [ x ] 1 rest
        else chunks acc (x :: current) (n + 1) rest
    in
    let groups = chunks [] [] 0 ins in
    let roots = List.map (tree nl style ~k func fresh) groups in
    tree nl style ~k func fresh roots
  end

let cover_tree nl style ~k net_of name cover =
  let counter = ref 0 in
  let fresh tag () =
    incr counter;
    Printf.sprintf "%s_%s%d" name tag !counter
  in
  let cube_root cube =
    let ins =
      List.map (fun (v, pol) -> (net_of v, not pol)) (Cube.literals cube)
    in
    match ins with
    | [] -> invalid_arg "Mapping: constant-true cube"
    | _ -> tree nl style ~k Gate.And (fresh "and") ins
  in
  match Cover.cubes cover with
  | [] -> invalid_arg "Mapping: empty cover"
  | [ cube ] -> cube_root cube
  | cubes -> tree nl style ~k Gate.Or (fresh "or") (List.map cube_root cubes)

let emit_mapped ?(style = Emit.Static_cmos) ?(max_fanin = 3) stg impls =
  if max_fanin < 2 then invalid_arg "Mapping.emit_mapped: max_fanin >= 2";
  let nl = Netlist.create () in
  let n = Stg.num_signals stg in
  let nets = Array.make n (-1) in
  List.iter
    (fun s ->
      if Stg.is_input stg s then nets.(s) <- Netlist.input nl (Stg.signal_name stg s))
    (Stg.signals stg);
  List.iter
    (fun (s, _) ->
      if Stg.is_input stg s then invalid_arg "Mapping: implementation for an input";
      nets.(s) <- Netlist.forward nl (Stg.signal_name stg s))
    impls;
  let net_of s = nets.(s) in
  let gstyle = gate_style style in
  List.iter
    (fun (s, impl) ->
      let name = Stg.signal_name stg s in
      let out = nets.(s) in
      (match impl with
      | Implement.Complex cover ->
        let src, neg = cover_tree nl gstyle ~k:max_fanin net_of name cover in
        Netlist.set_driver nl out
          (Gate.make (if neg then Gate.Not else Gate.Buf) ~fanin:1)
          [ (src, false) ]
      | Implement.Gc { set; reset } ->
        let s_root = cover_tree nl gstyle ~k:max_fanin net_of (name ^ "_set") set in
        let r_root = cover_tree nl gstyle ~k:max_fanin net_of (name ^ "_rst") reset in
        Netlist.set_driver nl out (Gate.make Gate.Set_reset ~fanin:2) [ s_root; r_root ]);
      if Stg.kind stg s = Stg.Output then Netlist.mark_output nl out)
    impls;
  List.iter
    (fun s -> Netlist.set_initial nl nets.(s) (Stg.initial_value stg s))
    (Stg.signals stg);
  Netlist.settle_initial ~frozen:(List.map net_of (Stg.signals stg)) nl;
  nl

type inference = {
  netlist : Netlist.t;
  constraints : (Conformance.net_edge * Conformance.net_edge) list;
  conforms : bool;
  rounds : int;
  residual : Conformance.failure list;
}

let move_edge circuit spec = function
  | Conformance.Gate (net, v) -> Some { Conformance.net; rising = v }
  | Conformance.Env t -> (
    match Stg.label spec t with
    | Stg.Edge { signal; dir } -> (
      match Netlist.find_net circuit (Stg.signal_name spec signal) with
      | net -> Some { Conformance.net; rising = dir = Stg.Rise }
      | exception Not_found -> None)
    | Stg.Dummy -> None)

(* A hazard "gate g (towards v) disabled by edge e" admits two timing
   repairs: (a) g commits before e, or (b) e consistently precedes g's
   excitation so the glitch never arises — the right choice depends on
   which ordering the specification wants, so the inference backtracks
   over both, depth-first, under a global conformance-check budget. *)
(* Replay a failure trace (all moves but the last) on the net values and
   return the gate edges excited just before the final move — the
   candidate "should have gone first" events for an unexpected output. *)
let excited_before circuit spec trace =
  let n = Netlist.num_nets circuit in
  let values = Array.init n (Netlist.initial_value circuit) in
  let apply_move m =
    match move_edge circuit spec m with
    | Some { Conformance.net; rising } -> values.(net) <- rising
    | None -> ()
  in
  let rec replay = function
    | [] | [ _ ] -> ()
    | m :: rest ->
      apply_move m;
      replay rest
  in
  replay trace;
  List.filter_map
    (fun net ->
      match Netlist.driver circuit net with
      | None -> None
      | Some (g, ins) ->
        let v =
          Gate.eval g ~current:values.(net)
            (List.map (fun (i, neg) -> values.(i) <> neg) ins)
        in
        if v <> values.(net) then Some { Conformance.net; rising = v } else None)
    (List.init n Fun.id)

let infer ?(assumptions = []) ?(max_rounds = 32) ~circuit ~spec () =
  let checks = ref 0 in
  let rounds = ref 0 in
  let best_residual = ref None in
  let visited = Hashtbl.create 256 in
  let rec search constraints depth =
    let key = List.sort compare constraints in
    if !checks >= 24 * max_rounds || Hashtbl.mem visited key then None
    else begin
      Hashtbl.add visited key ();
      incr checks;
      rounds := max !rounds (max_rounds - depth);
      let result =
        Conformance.check ~constraints:assumptions ~net_constraints:constraints ~circuit
          ~spec ()
      in
      if result.Conformance.ok then Some constraints
      else if depth = 0 then begin
        (match !best_residual with
        | None -> best_residual := Some (constraints, result.Conformance.failures)
        | Some _ -> ());
        None
      end
      else begin
        let of_hazard = function
          | Conformance.Hazard { net; target; cause; _ } -> (
            match move_edge circuit spec cause with
            | Some cause_edge ->
              let g_edge = { Conformance.net; rising = target } in
              (* Heuristic order: against an environment edge the gate
                 should win (environments are slow); against another gate
                 the withdrawal is usually the intended outcome, so make
                 the withdrawn gate wait. *)
              (match cause with
              | Conformance.Env _ -> Some [ (g_edge, cause_edge); (cause_edge, g_edge) ]
              | Conformance.Gate _ -> Some [ (cause_edge, g_edge); (g_edge, cause_edge) ])
            | None -> None)
          | Conformance.Unexpected_output _ | Conformance.Deadlock _ -> None
        in
        (* An unexpected output lost a race silently: some excited gate
           should have fired first.  Propose each excited edge as the
           required predecessor. *)
        let of_unexpected = function
          | Conformance.Unexpected_output { net; value; trace } ->
            let fail_edge = { Conformance.net; rising = value } in
            (* Anchor the repair either at the failing edge itself or at
               its direct trigger (the move just before it): the excited
               gate that lost the race must precede one of them. *)
            let trigger_edge =
              match List.rev trace with
              | _ :: prev :: _ -> move_edge circuit spec prev
              | _ -> None
            in
            let anchors =
              fail_edge :: (match trigger_edge with Some e -> [ e ] | None -> [])
            in
            let excited =
              List.filter
                (fun e -> not (List.mem e anchors))
                (excited_before circuit spec trace)
            in
            let proposals =
              List.concat_map
                (fun anchor -> List.map (fun e -> (e, anchor)) excited)
                (List.rev anchors)
            in
            if proposals = [] then None else Some proposals
          | Conformance.Hazard _ | Conformance.Deadlock _ -> None
        in
        let proposals =
          match List.find_map of_hazard result.Conformance.failures with
          | Some p -> Some p
          | None -> List.find_map of_unexpected result.Conformance.failures
        in
        match proposals with
        | None ->
          (match !best_residual with
          | None -> best_residual := Some (constraints, result.Conformance.failures)
          | Some _ -> ());
          None
        | Some alternatives ->
          List.find_map
            (fun c ->
              if List.mem c constraints then None
              else search (c :: constraints) (depth - 1))
            alternatives
      end
    end
  in
  match search [] max_rounds with
  | Some constraints ->
    { netlist = circuit; constraints; conforms = true; rounds = !rounds; residual = [] }
  | None ->
    let constraints, residual =
      match !best_residual with Some (c, r) -> (c, r) | None -> ([], [])
    in
    { netlist = circuit; constraints; conforms = false; rounds = !rounds; residual }

let map_flow ?style ?max_fanin (flow : Flow.t) =
  let stg = flow.Flow.stg in
  let impls =
    List.map
      (fun s -> (Stg.signal_index stg s.Flow.signal_name, s.Flow.impl))
      flow.Flow.signals
  in
  let circuit = emit_mapped ?style ?max_fanin stg impls in
  infer ~assumptions:flow.Flow.assumptions ~circuit ~spec:stg ()
