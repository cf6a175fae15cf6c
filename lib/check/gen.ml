module Stg = Rtcad_stg.Stg
module Petri = Rtcad_stg.Petri
module Library = Rtcad_stg.Library
module Netlist = Rtcad_netlist.Netlist
module Gate = Rtcad_netlist.Gate
module Rng = Rtcad_util.Rng

type edge = { signal : int; dir : Stg.dir }

type plan =
  | Shape of string
  | Cycles of { kinds : Stg.kind array; cycles : edge list list }

(* ------------------------------------------------------------------ *)
(* STG plans                                                           *)
(* ------------------------------------------------------------------ *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let rotate k l =
  let n = List.length l in
  let k = ((k mod n) + n) mod n in
  List.filteri (fun i _ -> i >= k) l @ List.filteri (fun i _ -> i < k) l

let insert_at k x l =
  List.filteri (fun i _ -> i < k) l @ (x :: List.filteri (fun i _ -> i >= k) l)

let ensure_output kinds =
  if not (Array.exists (fun k -> k = Stg.Output) kinds) then kinds.(0) <- Stg.Output;
  kinds

let gen_plan rng ~max_places =
  let max_places = max 2 max_places in
  let budget = ref max_places in
  let kinds_rev = ref [] and nsigs = ref 0 in
  let cycles = ref [] in
  let ncycles = 1 + Rng.int rng 3 in
  for c = 0 to ncycles - 1 do
    if !budget >= 2 then begin
      let own = 1 + Rng.int rng (min 3 (!budget / 2)) in
      budget := !budget - (2 * own);
      let first = !nsigs in
      for _ = 1 to own do
        kinds_rev :=
          Rng.weighted rng [ (3, Stg.Output); (2, Stg.Input); (1, Stg.Internal) ]
          :: !kinds_rev;
        incr nsigs
      done;
      let edges =
        Array.init (2 * own) (fun i ->
            { signal = first + (i / 2); dir = (if i land 1 = 0 then Stg.Rise else Stg.Fall) })
      in
      shuffle rng edges;
      let seq = Array.to_list edges in
      (* Share one transition of an earlier cycle (a cactus: at most one
         shared transition per new cycle keeps every simple cycle of the
         union equal to a generated one, hence marked, hence live). *)
      let seq =
        if c > 0 && first > 0 && !budget >= 1 && Rng.bool rng then begin
          budget := !budget - 1;
          let s = Rng.int rng first in
          let d = if Rng.bool rng then Stg.Rise else Stg.Fall in
          insert_at (Rng.int rng (List.length seq + 1)) { signal = s; dir = d } seq
        end
        else seq
      in
      let seq = rotate (Rng.int rng (List.length seq)) seq in
      cycles := seq :: !cycles
    end
  done;
  let kinds = ensure_output (Array.of_list (List.rev !kinds_rev)) in
  Cycles { kinds; cycles = List.rev !cycles }

let gen_shape rng =
  let names = List.map fst (Library.all_named ()) in
  Shape (Rng.pick rng (Array.of_list names))

let edge_name e =
  Printf.sprintf "s%d%s" e.signal (match e.dir with Stg.Rise -> "+" | Stg.Fall -> "-")

let stg_of_plan = function
  | Shape name -> (
    match List.assoc_opt name (Library.all_named ()) with
    | Some stg -> stg
    | None -> invalid_arg ("Gen.stg_of_plan: unknown shape " ^ name))
  | Cycles { kinds; cycles } ->
    let ns = Array.length kinds in
    let b = Stg.Build.create () in
    (* A signal's home cycle (the one holding both its edges) fixes its
       initial value: whichever edge fires first from the token must move
       the signal away from its initial level. *)
    let initial = Array.make ns false in
    let owned = Array.make ns false in
    List.iter
      (fun cyc ->
        List.iter
          (fun e ->
            let s = e.signal in
            if
              (not owned.(s))
              && List.exists (fun e' -> e'.signal = s && e'.dir = Stg.Rise) cyc
              && List.exists (fun e' -> e'.signal = s && e'.dir = Stg.Fall) cyc
            then begin
              owned.(s) <- true;
              let fst_edge = List.find (fun e' -> e'.signal = s) cyc in
              initial.(s) <- fst_edge.dir = Stg.Fall
            end)
          cyc)
      cycles;
    Array.iteri
      (fun s k -> Stg.Build.signal b k ~initial:initial.(s) (Printf.sprintf "s%d" s))
      kinds;
    List.iter
      (fun cyc ->
        let a = Array.of_list cyc in
        let n = Array.length a in
        for i = 0 to n - 1 do
          Stg.Build.connect b (edge_name a.(i)) (edge_name a.((i + 1) mod n))
        done;
        Stg.Build.mark_between b (edge_name a.(n - 1)) (edge_name a.(0)))
      cycles;
    Stg.Build.finish b

let places_of_plan = function
  | Cycles { cycles; _ } -> List.fold_left (fun acc c -> acc + List.length c) 0 cycles
  | Shape _ as p -> Petri.num_places (Stg.net (stg_of_plan p))

let pp_plan ppf = function
  | Shape name -> Format.fprintf ppf "shape %s" name
  | Cycles { kinds; cycles } ->
    Format.fprintf ppf "cycles[%d signals]" (Array.length kinds);
    List.iter
      (fun cyc ->
        Format.fprintf ppf " (%s)" (String.concat " " (List.map edge_name cyc)))
      cycles

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

(* The canonical ladder: tiny specs every shrink run may jump to.  A
   kernel bug that hits (almost) every input shrinks straight down here. *)
let ladder =
  let e s d = { signal = s; dir = d } in
  [
    Cycles
      { kinds = [| Stg.Output |]; cycles = [ [ e 0 Stg.Rise; e 0 Stg.Fall ] ] };
    Cycles
      {
        kinds = [| Stg.Output; Stg.Output |];
        cycles = [ [ e 0 Stg.Rise; e 1 Stg.Rise; e 0 Stg.Fall; e 1 Stg.Fall ] ];
      };
    Cycles
      {
        kinds = [| Stg.Output; Stg.Output |];
        cycles =
          [
            [ e 0 Stg.Rise; e 0 Stg.Fall ];
            [ e 1 Stg.Rise; e 0 Stg.Rise; e 1 Stg.Fall ];
          ];
      };
  ]

(* Drop edges of signals that no longer have both their transitions in a
   single cycle (their home was shrunk away): an orphan edge could fire at
   most once and would wedge its cycle.  Re-run to a fixpoint, then drop
   empty cycles and renumber signals densely. *)
let rec sanitize kinds cycles =
  let ns = Array.length kinds in
  let owned = Array.make ns false in
  List.iter
    (fun cyc ->
      for s = 0 to ns - 1 do
        if
          List.exists (fun e -> e.signal = s && e.dir = Stg.Rise) cyc
          && List.exists (fun e -> e.signal = s && e.dir = Stg.Fall) cyc
        then owned.(s) <- true
      done)
    cycles;
  let cycles' =
    List.filter_map
      (fun cyc ->
        match List.filter (fun e -> owned.(e.signal)) cyc with
        | [] -> None
        | c -> Some c)
      cycles
  in
  if cycles' <> cycles then sanitize kinds cycles'
  else if cycles = [] then None
  else begin
    let used = Array.make ns false in
    List.iter (List.iter (fun e -> used.(e.signal) <- true)) cycles;
    let remap = Array.make ns (-1) in
    let next = ref 0 in
    Array.iteri
      (fun s u ->
        if u then begin
          remap.(s) <- !next;
          incr next
        end)
      used;
    let kinds' =
      Array.of_list
        (List.filteri (fun s _ -> used.(s)) (Array.to_list kinds))
    in
    if Array.length kinds' = 0 then None
    else
      Some
        (Cycles
           {
             kinds = ensure_output kinds';
             cycles =
               List.map (List.map (fun e -> { e with signal = remap.(e.signal) })) cycles;
           })
  end

let shrink_plan plan =
  let structural =
    match plan with
    | Shape _ -> []
    | Cycles { kinds; cycles } ->
      let ncycles = List.length cycles in
      let without_cycle =
        List.init ncycles (fun i ->
            sanitize kinds (List.filteri (fun j _ -> j <> i) cycles))
      in
      let without_signal =
        List.init (Array.length kinds) (fun s ->
            sanitize kinds
              (List.map (List.filter (fun e -> e.signal <> s)) cycles))
      in
      let without_shared =
        (* Remove one occurrence of a transition that appears in more than
           one cycle (keep the home cycle's copy). *)
        List.concat
          (List.mapi
             (fun i cyc ->
               List.filter_map
                 (fun e ->
                   let in_home =
                     List.exists (fun e' -> e'.signal = e.signal && e'.dir <> e.dir) cyc
                   in
                   if in_home then None
                   else
                     sanitize kinds
                       (List.mapi
                          (fun j c ->
                            if j = i then List.filter (fun e' -> e' <> e) c else c)
                          cycles))
                 cyc)
             cycles)
      in
      List.filter_map Fun.id (without_cycle @ without_signal) @ without_shared
  in
  let n = places_of_plan plan in
  let candidates = ladder @ structural in
  let seen = Hashtbl.create 8 in
  List.filter
    (fun c ->
      places_of_plan c < n
      &&
      let key = Format.asprintf "%a" pp_plan c in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    candidates

(* ------------------------------------------------------------------ *)
(* Edit scripts                                                        *)
(* ------------------------------------------------------------------ *)

(* Structural edits over a finished STG, for the incremental-synthesis
   differential battery.  Indices are taken modulo the current element
   count at application time, so an edit script stays applicable to any
   (shrunken) base.  Additions are behaviour-preserving duplications —
   a duplicated transition exercises the delta-reachability seeded path
   (the old transition set is a subset), a duplicated place changes the
   place space and forces the seed-fallback path.  Removals may leave
   the net inconsistent, unsafe or deadlocking; that is deliberate: the
   incremental and from-scratch pipelines must agree on failure verdicts
   just as exactly as on netlists. *)
type edit =
  | Add_transition of int  (** duplicate transition [i mod nt] *)
  | Remove_transition of int
  | Add_place of int  (** duplicate place [i mod np], same arcs and marking *)
  | Remove_place of int
  | Rename_signal of int
  | Toggle_assumption
      (** no structural change; flips the mode's [allow_input_first] *)

let pp_edit ppf = function
  | Add_transition i -> Format.fprintf ppf "add-transition %d" i
  | Remove_transition i -> Format.fprintf ppf "remove-transition %d" i
  | Add_place i -> Format.fprintf ppf "add-place %d" i
  | Remove_place i -> Format.fprintf ppf "remove-place %d" i
  | Rename_signal i -> Format.fprintf ppf "rename-signal %d" i
  | Toggle_assumption -> Format.fprintf ppf "toggle-assumption"

let apply_edit stg edit =
  let module Bitset = Rtcad_util.Bitset in
  let net = Stg.net stg in
  let np = Petri.num_places net and nt = Petri.num_transitions net in
  let ns = Stg.num_signals stg in
  let place_names = Array.init np (Petri.place_name net) in
  let transition_names = Array.init nt (Petri.transition_name net) in
  let pre = Array.init nt (Petri.pre net) in
  let post = Array.init nt (Petri.post net) in
  let marking = Petri.initial_marking net in
  let initial = List.filter (Bitset.mem marking) (List.init np Fun.id) in
  let labels = Array.init nt (Stg.label stg) in
  let signal_names = Array.init ns (Stg.signal_name stg) in
  let kinds = Array.init ns (Stg.kind stg) in
  let initial_values = Array.init ns (Stg.initial_value stg) in
  let remake ?(place_names = place_names)
      ?(transition_names = transition_names) ?(pre = pre) ?(post = post)
      ?(initial = initial) ?(labels = labels) ?(signal_names = signal_names)
      () =
    Stg.make
      ~net:(Petri.make ~place_names ~transition_names ~pre ~post ~initial)
      ~labels ~signal_names ~kinds ~initial_values
  in
  match edit with
  | Toggle_assumption -> stg
  | Add_transition i ->
    let t = i mod nt in
    remake
      ~transition_names:
        (Array.append transition_names
           [| Printf.sprintf "%s_d%d" transition_names.(t) nt |])
      ~pre:(Array.append pre [| pre.(t) |])
      ~post:(Array.append post [| post.(t) |])
      ~labels:(Array.append labels [| labels.(t) |])
      ()
  | Remove_transition i ->
    if nt <= 1 then stg
    else begin
      let t = i mod nt in
      let sel a =
        Array.of_list (List.filteri (fun j _ -> j <> t) (Array.to_list a))
      in
      remake
        ~transition_names:(sel transition_names)
        ~pre:(sel pre) ~post:(sel post) ~labels:(sel labels) ()
    end
  | Add_place i ->
    let p = i mod np in
    let dup arcs = if List.mem p arcs then arcs @ [ np ] else arcs in
    remake
      ~place_names:
        (Array.append place_names
           [| Printf.sprintf "%s_d%d" place_names.(p) np |])
      ~pre:(Array.map dup pre) ~post:(Array.map dup post)
      ~initial:(if Bitset.mem marking p then initial @ [ np ] else initial)
      ()
  | Remove_place i ->
    if np <= 1 then stg
    else begin
      let p = i mod np in
      let drop arcs =
        List.filter_map
          (fun q -> if q = p then None else Some (if q > p then q - 1 else q))
          arcs
      in
      remake
        ~place_names:
          (Array.of_list
             (List.filteri (fun j _ -> j <> p) (Array.to_list place_names)))
        ~pre:(Array.map drop pre) ~post:(Array.map drop post)
        ~initial:(drop initial) ()
    end
  | Rename_signal i ->
    let s = i mod ns in
    remake
      ~signal_names:
        (Array.mapi
           (fun j n -> if j = s then Printf.sprintf "%s_r%d" n ns else n)
           signal_names)
      ()

let gen_edit rng =
  (* Raw indices (reduced modulo the live count at application time);
     additions are weighted up because they keep the spec well-formed and
     are the edits the seeded fixpoint accelerates. *)
  let i = Rng.int rng 1024 in
  Rng.weighted rng
    [
      (4, Add_transition i);
      (2, Remove_transition i);
      (2, Add_place i);
      (1, Remove_place i);
      (2, Rename_signal i);
      (1, Toggle_assumption);
    ]

let gen_edits rng n = List.init n (fun _ -> gen_edit rng)

type edit_case = { base : plan; edits : edit list }

(* Lexicographic measure (places of base, number of edits): dropping an
   edit keeps the base, shrinking the base strictly reduces places (and
   every edit still applies, thanks to modulo indexing), so shrink loops
   terminate. *)
let shrink_edit_case { base; edits } =
  let fewer_edits =
    List.init (List.length edits) (fun i ->
        { base; edits = List.filteri (fun j _ -> j <> i) edits })
  in
  let smaller_base = List.map (fun b -> { base = b; edits }) (shrink_plan base) in
  fewer_edits @ smaller_base

(* ------------------------------------------------------------------ *)
(* Netlists and stimuli                                                *)
(* ------------------------------------------------------------------ *)

let gen_netlist rng =
  let nl = Netlist.create () in
  let nets = ref [] in
  let nin = 2 + Rng.int rng 2 in
  for i = 0 to nin - 1 do
    let n = Netlist.input nl (Printf.sprintf "i%d" i) in
    Netlist.set_initial nl n (Rng.bool rng);
    nets := n :: !nets
  done;
  let ngates = 1 + Rng.int rng 10 in
  for g = 0 to ngates - 1 do
    let pool = Array.of_list !nets in
    let gate =
      match
        Rng.weighted rng
          [
            (3, `And); (3, `Or); (2, `Nand); (2, `Nor); (2, `Xor); (2, `Not);
            (1, `Buf); (2, `Celem); (1, `Set_reset); (2, `Sop); (1, `Sop_sr);
          ]
      with
      | `Not -> Gate.make Gate.Not ~fanin:1
      | `Buf -> Gate.make Gate.Buf ~fanin:1
      | `Xor -> Gate.make Gate.Xor ~fanin:2
      | `Set_reset -> Gate.make Gate.Set_reset ~fanin:2
      | `Celem -> Gate.make Gate.Celem ~fanin:(2 + Rng.int rng 2)
      | `Sop ->
        let cubes = List.init (1 + Rng.int rng 2) (fun _ -> 1 + Rng.int rng 2) in
        Gate.make (Gate.Sop cubes) ~fanin:(List.fold_left ( + ) 0 cubes)
      | `Sop_sr ->
        let set_cubes = [ 1 + Rng.int rng 2 ] and reset_cubes = [ 1 + Rng.int rng 2 ] in
        Gate.make
          (Gate.Sop_sr { set_cubes; reset_cubes })
          ~fanin:(List.fold_left ( + ) 0 (set_cubes @ reset_cubes))
      | `And -> Gate.make Gate.And ~fanin:(2 + Rng.int rng 2)
      | `Or -> Gate.make Gate.Or ~fanin:(2 + Rng.int rng 2)
      | `Nand -> Gate.make Gate.Nand ~fanin:(2 + Rng.int rng 2)
      | `Nor -> Gate.make Gate.Nor ~fanin:(2 + Rng.int rng 2)
    in
    let ins = List.init gate.Gate.fanin (fun _ -> (Rng.pick rng pool, Rng.bool rng)) in
    let out = Netlist.add_gate nl gate ins (Printf.sprintf "g%d" g) in
    nets := out :: !nets
  done;
  List.iter (Netlist.mark_output nl) !nets;
  Netlist.settle_initial nl;
  nl

let gen_stimuli rng nl =
  let inputs = Array.of_list (Netlist.inputs nl) in
  let current = Hashtbl.create 8 in
  Array.iter (fun n -> Hashtbl.replace current n (Netlist.initial_value nl n)) inputs;
  let n = 5 + Rng.int rng 16 in
  let t = ref 0.0 in
  List.init n (fun _ ->
      t := !t +. 200.0 +. float_of_int (Rng.int rng 1300);
      let i = Rng.pick rng inputs in
      let v = not (Hashtbl.find current i) in
      Hashtbl.replace current i v;
      (i, v, !t))

let horizon stim =
  List.fold_left (fun acc (_, _, at) -> Float.max acc at) 0.0 stim +. 5_000.0
