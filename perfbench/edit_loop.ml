(* edit_loop: synthesis used incrementally.  For each of rings 10-12 a
   cold base synthesis fills a fresh in-memory [Store]; then each
   behaviour-preserving edit of the ring's catalogue is applied to the
   base and synthesized twice, once in the default (domino) style and
   once more in static CMOS.  The first re-synthesis is where
   delta-seeded symbolic reachability ([Symbolic.analyze_cached]) does
   its work, the second replays the store's [covers] stage.  It is the
   only workload on which those two mechanisms carry load. *)

open Common
module Library = Rtcad_stg.Library
module Symbolic = Rtcad_sg.Symbolic
module Bdd = Rtcad_logic.Bdd
module Gen = Rtcad_check.Gen
module Store = Rtcad_core.Store
module Emit = Rtcad_synth.Emit
module Obs = Rtcad_obs.Obs

let rings = [ 10; 11; 12 ]

(* The validated edit catalogue: duplicated transitions keep an earlier
   reachable set a valid seed, duplicated places change the place
   space, renames change only names.  Each edit applies to the
   unedited base, so an edit's output does not depend on the order the
   seed draws (the seeding work does). *)
let catalogue =
  Gen.
    [
      Add_transition 1;
      Add_transition 4;
      Add_transition 7;
      Add_place 0;
      Add_place 5;
      Rename_signal 0;
      Rename_signal 3;
      Rename_signal 6;
    ]

let edit_name e =
  String.map (fun c -> if c = ' ' then '-' else c) (Format.asprintf "%a" Gen.pp_edit e)

type step = { name : string; stg : Rtcad_stg.Stg.t }
type ring_plan = { ring : int; base : Rtcad_stg.Stg.t; steps : step list }

let plan_ring ~edits n =
  let base = Library.ring n in
  {
    ring = n;
    base;
    steps =
      List.map (fun e -> { name = edit_name e; stg = Gen.apply_edit base e }) edits;
  }

(* The seed orders each ring's edits. *)
let setup ~tiny ~seed =
  let st = rng ~seed ~salt:2 in
  let rings = if tiny then [ 10 ] else rings in
  List.map
    (fun n ->
      let edits = shuffle st catalogue in
      let edits = if tiny then List.filteri (fun i _ -> i < 2) edits else edits in
      plan_ring ~edits n)
    rings

let styles = [ ("domino", None); ("static", Some Emit.Static_cmos) ]

let key ring step style = Printf.sprintf "ring%d/%s/%s" ring step style

let synth ~store ~ring ~step ?emit_style (style, stg) =
  op_of ~key:(key ring step style)
    (fun () -> Flow.synthesize ~cache:store ?emit_style stg)
    flow_text

let run_ring p =
  Bdd.clear_caches ();
  Symbolic.Seeds.clear ();
  let store = Store.create () in
  let base =
    Obs.span "bench.edit_base" (fun () ->
        synth ~store ~ring:p.ring ~step:"base" ("domino", p.base))
  in
  let steps =
    List.concat_map
      (fun s ->
        Obs.span "bench.edit_step"
          ~args:(fun () -> [ ("edit", s.name) ])
          (fun () ->
            List.map
              (fun (style, emit_style) ->
                synth ~store ~ring:p.ring ~step:s.name ?emit_style (style, s.stg))
              styles))
      p.steps
  in
  (base :: steps, Store.stats store)

let pass plans =
  let results, wall_s = time (fun () -> List.map run_ring plans) in
  let ops = List.concat_map fst results in
  let hits, misses =
    List.fold_left
      (fun (h, m) (_, (st : Store.stats)) -> (h + st.Store.hits, m + st.Store.misses))
      (0, 0) results
  in
  {
    wall_s;
    ops;
    props =
      [
        ("edit_loop.syntheses", float_of_int (List.length ops));
        ( "edit_loop.store_hit_ratio",
          if hits + misses > 0 then float_of_int hits /. float_of_int (hits + misses)
          else 0.0 );
      ];
  }

(* Every key the workload can produce: base and every catalogue edit in
   both styles, each synthesized from scratch. *)
let all_outputs () =
  List.concat_map
    (fun n ->
      let p = plan_ring ~edits:catalogue n in
      let scratch styles step stg =
        List.map
          (fun (style, emit_style) ->
            Bdd.clear_caches ();
            Symbolic.Seeds.clear ();
            (key n step style, Flow.synthesize ?emit_style stg))
          styles
      in
      scratch [ List.hd styles ] "base" p.base
      @ List.concat_map (fun s -> scratch styles s.name s.stg) p.steps)
    rings
