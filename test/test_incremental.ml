(* Incremental synthesis: stage-key properties, artifact-store
   corruption handling, warm reconstruction, and a small fixed-seed
   edit-replay battery. *)

module Stg = Rtcad_stg.Stg
module Stg_io = Rtcad_stg.Stg_io
module Library = Rtcad_stg.Library
module Engine = Rtcad_sg.Engine
module Symbolic = Rtcad_sg.Symbolic
module Emit = Rtcad_synth.Emit
module Flow = Rtcad_core.Flow
module Store = Rtcad_core.Store
module Gen = Rtcad_check.Gen
module Oracle = Rtcad_check.Oracle
module Rng = Rtcad_util.Rng
module Bdd = Rtcad_logic.Bdd
module Netlist = Rtcad_netlist.Netlist

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- stage keys ------------------------------------------------------- *)

let all_keys (k : Flow.keys) =
  [ k.Flow.normalize; k.Flow.encode; k.Flow.reach_key; k.Flow.covers; k.Flow.emit ]

(* Reformatting the .g text — trailing blanks, comment lines, blank
   lines — must not move any stage key (same LCG perturbation the serve
   cache property uses). *)
let perturb seed text =
  let lines = String.split_on_char '\n' text in
  let n = ref seed in
  let next bound =
    n := (!n * 1103515245) + 12345;
    (!n lsr 16) mod bound
  in
  String.concat "\n"
    (List.concat_map
       (fun line ->
         let line = if next 3 = 0 then line ^ "   " else line in
         let extras =
           match next 4 with
           | 0 -> [ "" ]
           | 1 -> [ "# a comment the lexer strips" ]
           | _ -> []
         in
         line :: extras)
       lines)

let spec_pool () = Library.all_named ()

let test_keys_invariant_under_reformatting =
  QCheck.Test.make ~count:40 ~name:"stage keys invariant under reformatting"
    QCheck.(pair (int_range 0 6) (int_range 1 1000))
    (fun (which, seed) ->
      let name, stg = List.nth (spec_pool ()) which in
      (* parse both sides: the printer orders transitions by first
         mention, so a builder STG and its reparse are isomorphic but
         indexed differently (and key differently, by design) *)
      let text = Stg_io.to_string stg in
      let k0 = Flow.stage_keys (Stg_io.parse text) in
      let k1 = Flow.stage_keys (Stg_io.parse (perturb seed text)) in
      if all_keys k0 <> all_keys k1 then
        QCheck.Test.fail_reportf "perturbation moved a stage key for %s" name;
      true)

(* Every semantic edit class moves the keys it must move and no others:
   structural edits move all five; a mode flip spares only [normalize];
   an engine change spares [normalize]; a bound change spares
   [normalize]; a style change moves only [emit]. *)
let test_keys_change_on_semantic_edits () =
  let stg = Library.fifo () in
  let base = Flow.stage_keys stg in
  let distinct_from ?(spare = []) label k =
    List.iter2
      (fun (name, a) b ->
        if List.mem name spare then
          check_string (label ^ ": " ^ name ^ " unchanged") b a
        else if String.equal a b then
          Alcotest.failf "%s: key %s did not change" label name)
      [
        ("normalize", k.Flow.normalize);
        ("encode", k.Flow.encode);
        ("reach", k.Flow.reach_key);
        ("covers", k.Flow.covers);
        ("emit", k.Flow.emit);
      ]
      (all_keys base)
  in
  (* structural edits (duplicate transition / place, rename signal)
     change the canonical text, hence every key *)
  List.iter
    (fun edit ->
      let edited = Gen.apply_edit stg edit in
      distinct_from (Format.asprintf "%a" Gen.pp_edit edit) (Flow.stage_keys edited))
    [ Gen.Add_transition 3; Gen.Add_place 2; Gen.Rename_signal 0 ];
  (* mode flip: same spec text, different derivation *)
  distinct_from ~spare:[ "normalize" ] "mode flip"
    (Flow.stage_keys
       ~mode:(Flow.Rt { user = []; allow_input_first = true; allow_lazy = true })
       stg);
  distinct_from ~spare:[ "normalize" ] "SI mode" (Flow.stage_keys ~mode:Flow.Si stg);
  (* engine change *)
  distinct_from ~spare:[ "normalize" ] "engine"
    (Flow.stage_keys ~engine:Engine.Symbolic stg);
  (* state bound *)
  distinct_from ~spare:[ "normalize" ] "bound" (Flow.stage_keys ~max_states:999 stg);
  (* style: only emission depends on it *)
  distinct_from
    ~spare:[ "normalize"; "encode"; "reach"; "covers" ]
    "style"
    (Flow.stage_keys ~emit_style:(Emit.Domino_cmos { footed = false }) stg)

(* Explicit and symbolic selections must not collide through Auto. *)
let test_keys_auto_resolves () =
  let stg = Library.fifo () in
  let auto = Flow.stage_keys ~engine:Engine.Auto stg in
  let resolved =
    match Engine.select Engine.Auto stg with
    | `Explicit -> Flow.stage_keys ~engine:Engine.Explicit stg
    | `Symbolic -> Flow.stage_keys ~engine:Engine.Symbolic stg
  in
  check "auto key equals resolved engine key" true (all_keys auto = all_keys resolved)

(* --- artifact store --------------------------------------------------- *)

let with_tmpdir f =
  let path = Filename.temp_file "rtcad-store" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then begin
        Array.iter
          (fun e -> try Sys.remove (Filename.concat path e) with Sys_error _ -> ())
          (Sys.readdir path);
        try Unix.rmdir path with Unix.Unix_error _ -> ()
      end)
    (fun () -> f path)

let entry_files dir =
  Array.to_list (Sys.readdir dir)
  |> List.filter (fun f -> Filename.check_suffix f ".art")
  |> List.map (Filename.concat dir)

let test_store_roundtrip () =
  with_tmpdir @@ fun dir ->
  let s = Store.create ~dir () in
  let k = Store.key [ "stage"; "payload-identity" ] in
  Store.store ~stage:"reach" s k "payload-bytes";
  check "memory hit" true (Store.find s k = Some "payload-bytes");
  (* a second store instance sees it through the disk tier *)
  let s2 = Store.create ~dir () in
  check "disk hit" true (Store.find s2 k = Some "payload-bytes");
  check_int "disk entries" 1 (Store.disk_stats ~dir).Store.d_entries

let corrupt_with f dir =
  match entry_files dir with
  | [ file ] -> f file
  | l -> Alcotest.failf "expected 1 entry file, found %d" (List.length l)

let test_store_flipped_byte () =
  with_tmpdir @@ fun dir ->
  let s = Store.create ~dir () in
  let k = Store.key [ "covers"; "x" ] in
  Store.store ~stage:"covers" s k "sixteen bytes of payload";
  corrupt_with
    (fun file ->
      let ic = open_in_bin file in
      let len = in_channel_length ic in
      let b = really_input_string ic len in
      close_in ic;
      let b = Bytes.of_string b in
      (* flip a byte near the end — inside the payload, past the header *)
      let i = Bytes.length b - 3 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
      let oc = open_out_bin file in
      output_bytes oc b;
      close_out oc)
    dir;
  let s2 = Store.create ~dir () in
  check "flipped byte is a miss" true (Store.find s2 k = None);
  check "corrupt entry removed" true (entry_files dir = []);
  check_int "corruption counted" 1 (Store.stats s2).Store.corrupt;
  ignore s

let test_store_truncated_entry () =
  with_tmpdir @@ fun dir ->
  let s = Store.create ~dir () in
  let k = Store.key [ "emit"; "y" ] in
  Store.store ~stage:"emit" s k (String.make 256 'n');
  corrupt_with
    (fun file ->
      let ic = open_in_bin file in
      let len = in_channel_length ic in
      let b = really_input_string ic (len / 2) in
      close_in ic;
      let oc = open_out_bin file in
      output_string oc b;
      close_out oc)
    dir;
  let s2 = Store.create ~dir () in
  check "truncated entry is a miss" true (Store.find s2 k = None);
  check "truncated entry removed" true (entry_files dir = [])

let test_store_missing_blob () =
  with_tmpdir @@ fun dir ->
  let s = Store.create ~dir () in
  let k = Store.key [ "encode"; "z" ] in
  Store.store ~stage:"encode" s k "gone";
  corrupt_with Sys.remove dir;
  let s2 = Store.create ~dir () in
  check "missing blob is a miss" true (Store.find s2 k = None);
  (* and a foreign file in the directory is detected, not trusted *)
  let oc = open_out_bin (Filename.concat dir "deadbeef.art") in
  output_string oc "not a store entry at all";
  close_out oc;
  let st = Store.disk_stats ~dir in
  check_int "foreign file counted corrupt" 1 st.Store.d_corrupt;
  check "foreign file removed" true (entry_files dir = [])

(* Concurrent writers racing the same entry through temp-file renames:
   every interleaving leaves a readable, checksummed entry. *)
let test_store_concurrent_writers () =
  with_tmpdir @@ fun dir ->
  let k = Store.key [ "reach"; "contended" ] in
  let payload d = Printf.sprintf "writer-%d-payload" d in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let s = Store.create ~dir () in
            for _ = 1 to 25 do
              Store.store ~stage:"reach" s k (payload d)
            done))
  in
  List.iter Domain.join domains;
  let s = Store.create ~dir () in
  (match Store.find s k with
  | None -> Alcotest.fail "entry lost after concurrent writes"
  | Some v ->
    check "payload is one of the writers'" true
      (List.exists (fun d -> String.equal v (payload d)) [ 0; 1; 2; 3 ]));
  let st = Store.disk_stats ~dir in
  check_int "no corruption from racing renames" 0 st.Store.d_corrupt;
  check_int "single entry for the contended key" 1 st.Store.d_entries;
  (* no abandoned temp files *)
  check_int "directory holds only the entry" 1 (Array.length (Sys.readdir dir))

(* Domains sharing one store (the daemon's wave workers synthesize into
   one flow store): no insertion is lost and the counters are exact. *)
let test_store_shared_by_domains () =
  let s = Store.create () in
  let n = 100_000 in
  let key d i = Store.key [ string_of_int d; string_of_int i ] in
  let domains =
    List.init 2 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to n do
              Store.store ~stage:"reach" s (key d i) (string_of_int i)
            done;
            let found = ref 0 in
            for i = 1 to n do
              if Store.find s (key d i) = Some (string_of_int i) then incr found
            done;
            !found))
  in
  let found = List.map Domain.join domains in
  check "every key found" true (List.for_all (( = ) n) found);
  let st = Store.stats s in
  check_int "entries" (2 * n) st.Store.entries;
  check_int "stores" (2 * n) st.Store.stores;
  check_int "hits" (2 * n) st.Store.hits;
  check_int "misses" 0 st.Store.misses

let test_store_gc_budget () =
  with_tmpdir @@ fun dir ->
  let s = Store.create ~dir () in
  for i = 1 to 8 do
    Store.store ~stage:"covers" s
      (Store.key [ "gc"; string_of_int i ])
      (String.make 1000 (Char.chr (Char.code 'a' + i)))
  done;
  let before = Store.disk_stats ~dir in
  check_int "eight entries" 8 before.Store.d_entries;
  let removed, remaining = Store.gc ~dir ~budget:(before.Store.d_bytes / 2) in
  check "entries removed" true (removed > 0);
  check "budget respected" true (remaining <= before.Store.d_bytes / 2);
  check_int "survivors listed" (8 - removed) (List.length (Store.ls ~dir))

(* Memory tier: entry cost = payload bytes + ceil(compute ms); the
   budget bounds the retained total and eviction is LRU by that cost. *)
let test_store_cost_eviction () =
  let c = Store.create ~shards:1 ~budget:100 () in
  Store.store ~stage:"covers" ~cost_ms:30.0 c "a" (String.make 20 'a');
  (* cost 50 *)
  Store.store ~stage:"covers" ~cost_ms:20.0 c "b" (String.make 20 'b');
  (* cost 40: total 90, both fit *)
  check_int "both under budget" 2 (Store.stats c).Store.entries;
  ignore (Store.find c "a");
  (* touch: "b" becomes the LRU victim *)
  Store.store ~stage:"covers" c "d" (String.make 40 'd');
  (* cost 40: 130 > 100, evict "b" *)
  let st = Store.stats c in
  check_int "one eviction" 1 st.Store.evictions;
  check "LRU victim gone" true (Store.find c "b" = None);
  check "touched entry survives" true (Store.find c "a" <> None);
  check_int "retained bytes" 60 st.Store.retained_bytes;
  Alcotest.(check (float 1e-6)) "retained ms" 30.0 st.Store.retained_ms;
  (* A single entry dearer than the whole budget still caches: the entry
     just inserted is never its own victim. *)
  Store.store ~stage:"covers" c "huge" (String.make 500 'h');
  check "oversized entry cached" true (Store.find c "huge" <> None);
  check_int "everything else evicted" 1 (Store.stats c).Store.entries

let test_store_shard_distribution () =
  let c = Store.create ~shards:4 () in
  for i = 1 to 64 do
    Store.store ~stage:"covers" ~cost_ms:1.0 c
      (Store.key [ string_of_int i ])
      (Printf.sprintf "payload-%d" i)
  done;
  let st = Store.stats c in
  check_int "one stat per shard" 4 (List.length st.Store.shards);
  check_int "entries sum to total" st.Store.entries
    (List.fold_left (fun a s -> a + s.Store.sh_entries) 0 st.Store.shards);
  check_int "bytes sum to total" st.Store.retained_bytes
    (List.fold_left (fun a s -> a + s.Store.sh_bytes) 0 st.Store.shards);
  Alcotest.(check (float 1e-6)) "ms sum to total" st.Store.retained_ms
    (List.fold_left (fun a s -> a +. s.Store.sh_ms) 0.0 st.Store.shards);
  let populated =
    List.length (List.filter (fun s -> s.Store.sh_entries > 0) st.Store.shards)
  in
  check "hash prefix spreads the keys" true (populated > 1)

(* --- warm reconstruction ---------------------------------------------- *)

let flow_fingerprint r =
  Format.asprintf "%a@.%a" Flow.pp_report r Netlist.pp r.Flow.netlist

let test_warm_reconstruction_identical () =
  with_tmpdir @@ fun dir ->
  List.iter
    (fun engine ->
      Symbolic.Seeds.clear ();
      Bdd.clear_caches ();
      let stg = Library.fifo () in
      let store = Store.create ~dir () in
      let cold = Flow.synthesize ~cache:store ~engine stg in
      (* a fresh store instance on the same directory: disk-tier warm *)
      Symbolic.Seeds.clear ();
      Bdd.clear_caches ();
      let warm = Flow.synthesize ~cache:(Store.create ~dir ()) ~engine stg in
      check_string "warm flow byte-identical" (flow_fingerprint cold)
        (flow_fingerprint warm);
      (* and an uncached run agrees too *)
      Symbolic.Seeds.clear ();
      Bdd.clear_caches ();
      let scratch = Flow.synthesize ~engine stg in
      check_string "scratch agrees" (flow_fingerprint cold) (flow_fingerprint scratch))
    [ Engine.Explicit; Engine.Symbolic ]

let test_warm_hit_counters () =
  Symbolic.Seeds.clear ();
  Bdd.clear_caches ();
  let stg = Library.c_element () in
  let store = Store.create () in
  let a = Flow.synthesize ~cache:store ~engine:Engine.Explicit stg in
  let b = Flow.synthesize ~cache:store ~engine:Engine.Explicit stg in
  check_string "second run reconstructs the same flow" (flow_fingerprint a)
    (flow_fingerprint b);
  let st = Store.stats store in
  check "stage artifacts stored" true (st.Store.stores >= 4);
  check "second run hit the store" true (st.Store.hits > 0)

(* --- fixed-seed edit-replay battery ----------------------------------- *)

let test_edit_battery () =
  let rng = Rng.create 42 in
  for i = 1 to 6 do
    Bdd.clear_caches ();
    let base = Gen.gen_plan rng ~max_places:6 in
    let edits = Gen.gen_edits rng (1 + Rng.int rng 2) in
    match Oracle.diff_incremental (Gen.stg_of_plan base) edits with
    | Oracle.Fail f ->
      Alcotest.failf "battery case %d diverged [%s]: %s" i f.Oracle.oracle
        f.Oracle.detail
    | Oracle.Pass | Oracle.Skip _ -> ()
  done

(* The delta seed actually engages on a pure transition addition. *)
let test_delta_seed_engages () =
  Symbolic.Seeds.clear ();
  Bdd.clear_caches ();
  let was_enabled = Rtcad_obs.Obs.enabled () in
  Rtcad_obs.Obs.set_enabled true;
  let stg = Library.fifo () in
  let _ = Symbolic.analyze_cached stg in
  let edited = Gen.apply_edit stg (Gen.Add_transition 1) in
  let sym = Symbolic.analyze_cached edited in
  let seeded =
    Rtcad_obs.Obs.counter (Rtcad_obs.Obs.snapshot ()) "sg.symbolic.seeded"
  in
  Rtcad_obs.Obs.set_enabled was_enabled;
  check "seeded fixpoint used" true (seeded > 0);
  (* exactness: the seeded result equals a from-scratch analysis *)
  Symbolic.Seeds.clear ();
  Bdd.clear_caches ();
  let scratch = Symbolic.analyze edited in
  check_int "same state count" (Symbolic.num_states scratch) (Symbolic.num_states sym)

let suite =
  [
    ( "incremental-keys",
      [
        QCheck_alcotest.to_alcotest test_keys_invariant_under_reformatting;
        Alcotest.test_case "semantic edits move the right keys" `Quick
          test_keys_change_on_semantic_edits;
        Alcotest.test_case "auto engine resolves" `Quick test_keys_auto_resolves;
      ] );
    ( "artifact-store",
      [
        Alcotest.test_case "roundtrip through both tiers" `Quick test_store_roundtrip;
        Alcotest.test_case "flipped byte" `Quick test_store_flipped_byte;
        Alcotest.test_case "truncated entry" `Quick test_store_truncated_entry;
        Alcotest.test_case "missing blob, foreign file" `Quick test_store_missing_blob;
        Alcotest.test_case "concurrent writers" `Quick test_store_concurrent_writers;
        Alcotest.test_case "shared by two domains" `Quick test_store_shared_by_domains;
        Alcotest.test_case "gc to budget" `Quick test_store_gc_budget;
        Alcotest.test_case "cost-based eviction honours the budget" `Quick
          test_store_cost_eviction;
        Alcotest.test_case "shard stats partition the totals" `Quick
          test_store_shard_distribution;
      ] );
    ( "incremental-flow",
      [
        Alcotest.test_case "warm reconstruction byte-identical" `Quick
          test_warm_reconstruction_identical;
        Alcotest.test_case "hit counters" `Quick test_warm_hit_counters;
        Alcotest.test_case "delta seed engages and stays exact" `Quick
          test_delta_seed_engages;
        Alcotest.test_case "fixed-seed edit battery" `Slow test_edit_battery;
      ] );
  ]
