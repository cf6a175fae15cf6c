(* synth_cold: every call is a whole [rtsyn synth] from scratch.  Flow,
   Csc, Sg, Symbolic and Bdd do nearly all the work; serve, the
   response cache and the artifact store are bypassed (no store is
   passed), which makes this the workload on which cache-side changes
   must show no change. *)

open Common
module Library = Rtcad_stg.Library
module Transform = Rtcad_stg.Transform
module Engine = Rtcad_sg.Engine
module Symbolic = Rtcad_sg.Symbolic
module Bdd = Rtcad_logic.Bdd
module Obs = Rtcad_obs.Obs

type spec = {
  key : string;
  stg : Rtcad_stg.Stg.t;
  mode : Flow.mode;
  engine : Engine.t;
  symbolic : bool;  (** the engine [engine] resolves to on this spec *)
}

let spec key stg mode engine =
  let symbolic =
    Engine.select engine (Transform.contract_dummies ~strict:false stg) = `Symbolic
  in
  { key; stg; mode; engine; symbolic }

(* Every library spec in RT mode, every non-ring one in SI mode (SI
   synthesis of rings is the documented capability limit of the CSC
   search), rings 3-13 under [Auto] (explicit up to ring 9, symbolic
   from ring 10), and rings 6 and 8 forced symbolic so both engines are
   exercised on the same specs. *)
let corpus () =
  let lib = List.filter (fun (n, _) -> n <> "ring3") (Library.all_named ()) in
  List.map (fun (n, stg) -> spec (n ^ "/rt/auto") stg Flow.rt_default Engine.Auto) lib
  @ List.map (fun (n, stg) -> spec (n ^ "/si/auto") stg Flow.Si Engine.Auto) lib
  @ List.init 11 (fun i ->
        let n = i + 3 in
        spec (Printf.sprintf "ring%d/rt/auto" n) (Library.ring n) Flow.rt_default
          Engine.Auto)
  @ List.map
      (fun n ->
        spec (Printf.sprintf "ring%d/rt/symbolic" n) (Library.ring n)
          Flow.rt_default Engine.Symbolic)
      [ 6; 8 ]

let tiny_keys = [ "celement/rt/auto"; "fifo/si/auto"; "ring4/rt/auto"; "ring10/rt/auto" ]

(* The seed orders the specs; caches are cleared before each one, so
   the order changes no output.  Symbolic flows run first and explicit
   ones after, each group in seeded order: the heap the BDD tables grow
   stays with the process, so a seeded interleaving of the two groups
   would move the process peak between about 250 and 500 MB with the
   seed rather than with the program. *)
let setup ~tiny ~seed =
  let c = corpus () in
  let c = if tiny then List.filter (fun s -> List.mem s.key tiny_keys) c else c in
  let sym, exp = List.partition (fun s -> s.symbolic) (shuffle (rng ~seed ~salt:1) c) in
  sym @ exp

let synth s =
  Bdd.clear_caches ();
  Symbolic.Seeds.clear ();
  Obs.span "bench.spec"
    ~args:(fun () -> [ ("spec", s.key) ])
    (fun () ->
      op_of ~key:s.key
        (fun () -> Flow.synthesize ~mode:s.mode ~engine:s.engine s.stg)
        flow_text)

(* The timed region is the flow calls themselves; the clearing between
   them stands in for process start and is not timed. *)
let pass specs =
  let ops = List.map synth specs in
  let total = List.fold_left (fun a (o : op) -> a +. o.ms) 0.0 ops in
  let wall_s = total /. 1000.0 in
  let sym =
    List.fold_left2
      (fun a s (o : op) -> if s.symbolic then a +. o.ms else a)
      0.0 specs ops
  in
  {
    wall_s;
    ops;
    props =
      [
        ("synth_cold.flows", float_of_int (List.length ops));
        ("synth_cold.symbolic_time_share", if total > 0.0 then sym /. total else 0.0);
      ];
  }

(* Every key the workload can produce, for [expect] and [validate]. *)
let all_outputs () =
  List.map
    (fun s ->
      Bdd.clear_caches ();
      Symbolic.Seeds.clear ();
      (s, Flow.synthesize ~mode:s.mode ~engine:s.engine s.stg))
    (corpus ())
