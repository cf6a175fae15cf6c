(* The rtcad benchmark.

     main.exe run --workload W --seed N --seconds S --trace 0|1
     main.exe expect      rewrite perfbench/expected/*.txt
     main.exe validate    independent oracles + expected values
     main.exe selftest    tiny runs; the check must reject a perturbed value

   [run] makes one warm-up pass and then the timed passes that fit in S
   seconds, each with its own set-up and teardown.  With [--trace 0] it
   prints the end-to-end metrics of the timed passes; with [--trace 1]
   it adds one pass with [Obs] recording on and prints the per-layer
   split.  The metric names and units are the ones BENCHMARK.json at the
   checkout root lists.  Every operation of every pass is checked
   against the committed expected values.  The last stdout line is the
   result object; the line before it records the seed, job count,
   nproc, OCaml version and the workload's properties. *)

open Common
module Obs = Rtcad_obs.Obs
module Par = Rtcad_par.Par
module Json = Rtcad_serve.Json

type workload =
  | W : {
      name : string;
      setup : tiny:bool -> seed:int -> 'i;
      pass : 'i -> pass;
      teardown : 'i -> unit;
    }
      -> workload

let workloads =
  [
    W
      {
        name = "synth_cold";
        setup = Synth_cold.setup;
        pass = Synth_cold.pass;
        teardown = ignore;
      };
    W
      {
        name = "edit_loop";
        setup = Edit_loop.setup;
        pass = Edit_loop.pass;
        teardown = ignore;
      };
    W
      {
        name = "serve_mix";
        setup = Serve_mix.setup;
        pass = Serve_mix.pass;
        teardown = Serve_mix.teardown;
      };
    W
      {
        name = "sim_stream";
        setup = Sim_stream.setup;
        pass = Sim_stream.pass;
        teardown = ignore;
      };
  ]

let find_workload name =
  List.find_opt (fun (W w) -> w.name = name) workloads

(* The metrics of one section of BENCHMARK.json ("end_to_end" or
   "per_layer"), as (name, unit) in listed order. *)
let declared section =
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  let str k m = Option.bind (Json.member k m) Json.to_str in
  match Json.member section (Json.parse text) with
  | Some (Json.List l) ->
    List.map
      (fun m ->
        match (str "name" m, str "unit" m) with
        | Some n, Some u -> (n, u)
        | _ -> failwith ("BENCHMARK.json: a metric in " ^ section ^ " lacks a name or unit"))
      l
  | _ -> failwith ("BENCHMARK.json: no " ^ section ^ " list")

(* Per-pass [Gc.quick_stat] deltas. *)
type gc_delta = { minor_mwords : float; major : float; top_heap_mwords : float }

(* A cold pass: the set-up and a pass of a process that has run nothing
   before, as a whole [rtsyn] invocation would, with the time both took
   and the process's resident high-water mark after them. *)
type cold = { setup_s : float; peak_mb : float; cold_pass : pass }

type measured = {
  colds : cold list;  (** the forked ones, then this process's warm-up *)
  passes : (pass * gc_delta) list;  (** timed, untraced, in run order *)
  traced : (pass * Obs.snapshot) option;
}

(* Share of a run spent on cold passes in forked processes. *)
let cold_share = 1.0 /. 3.0

(* A run starts with cold passes, each in a process forked for it, for
   as long as another one, at the cost of the last, still ends within
   [cold_share] of [seconds] (at least one).  This process then makes
   its own cold pass, which doubles as its warm-up, and timed passes for
   as long as another one still ends within [seconds] of the start (at
   least one).  A run so lasts about [seconds] however fast the host is.
   Set-up time and peak memory are medians over the cold passes: a cold
   pass pays for first calls, heap growth and lazily built
   process-global state, as a whole [rtsyn] invocation does.  Peak
   memory cannot be read after later passes: the heap keeps the size it
   once had, and on serve_mix it grows by about 50 MB a pass while the
   live data stays flat.  Pass [k] of a run draws its inputs from a
   seed derived from the run's seed and [k], so the medians cover
   several request orders, spec and edit orders or streams: the peak
   memory of a serve_mix pass follows its request order (160 MB on one
   seed, 200 MB on another, run after run). *)
let measure (W w) ~tiny ~seed ~seconds ~trace =
  let start = now () in
  let setup k = w.setup ~tiny ~seed:(Hashtbl.hash (seed, k)) in
  let run_pass i = Fun.protect ~finally:(fun () -> w.teardown i) (fun () -> w.pass i) in
  let cold k () =
    let cold_pass, setup_s = time (fun () -> run_pass (setup k)) in
    { setup_s; peak_mb = peak_rss_mb (); cold_pass }
  in
  let rec forked acc =
    let c, cost = time (fun () -> in_child (cold (List.length acc))) in
    if now () -. start +. cost > seconds *. cold_share then List.rev (c :: acc)
    else forked (c :: acc)
  in
  (* Forks first: at RTCAD_JOBS > 1 a pass starts domains, and OCaml
     refuses to fork a process that has. *)
  let forked = forked [] in
  let colds = forked @ [ cold (List.length forked) () ] in
  let one k () =
    let i = setup k in
    let g0 = Gc.quick_stat () in
    let p = run_pass i in
    let g1 = Gc.quick_stat () in
    ( p,
      {
        minor_mwords = (g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6;
        major = float_of_int (g1.Gc.major_collections - g0.Gc.major_collections);
        top_heap_mwords = float_of_int g1.Gc.top_heap_words /. 1e6;
      } )
  in
  let rec timed acc =
    let r, cost = time (one (List.length colds + List.length acc)) in
    if now () -. start +. cost > seconds then List.rev (r :: acc) else timed (r :: acc)
  in
  let passes = timed [] in
  let traced =
    if not trace then None
    else begin
      let i = setup (List.length colds + List.length passes) in
      Obs.set_enabled true;
      let p = Fun.protect ~finally:(fun () -> Obs.set_enabled false) (fun () -> run_pass i) in
      Some (p, Obs.snapshot ())
    end
  in
  { colds; passes; traced }

let all_ops m =
  List.concat_map (fun c -> c.cold_pass.ops) m.colds
  @ List.concat_map (fun (p, _) -> p.ops) m.passes
  @ match m.traced with Some (p, _) -> p.ops | None -> []

let failed exp m =
  List.length (List.filter (fun o -> not (Expected.op_ok exp o)) (all_ops m))

let median_of f m = median (List.map (fun (p, g) -> f p g) m.passes)

(* Medians over the untraced passes of every workload property. *)
let props_median m =
  let names =
    List.sort_uniq String.compare
      (List.concat_map (fun (p, _) -> List.map fst p.props) m.passes)
  in
  List.map
    (fun k ->
      (k, median_of (fun p _ -> Option.value ~default:0.0 (List.assoc_opt k p.props)) m))
    names

let ms_of p = List.map (fun o -> o.ms) p.ops

(* Latency percentiles pool the operations of every timed pass. *)
let op_ms m = List.concat_map (fun (p, _) -> ms_of p) m.passes

let e2e_values m =
  let wall = median_of (fun p _ -> p.wall_s) m in
  [
    ("setup_s", median (List.map (fun c -> c.setup_s) m.colds));
    ("wall_s", wall);
    ("peak_rss_mb", median (List.map (fun c -> c.peak_mb) m.colds));
    ("ops_per_s", float_of_int (List.length (op_ms m) / List.length m.passes) /. wall);
  ]

let layer_values m =
  match m.traced with
  | None -> []
  | Some (tp, snap) ->
    let samples = List.length (op_ms m) in
    let untraced_wall = median_of (fun p _ -> p.wall_s) m in
    let props =
      props_median m
      @ [
          ("gc.minor_mwords", median_of (fun _ g -> g.minor_mwords) m);
          ("gc.major_collections", median_of (fun _ g -> g.major) m);
          ("gc.top_heap_mwords", median_of (fun _ g -> g.top_heap_mwords) m);
          ("ops.p50_ms", percentile 50.0 (op_ms m));
          ("ops.p99_ms", percentile 99.0 (op_ms m));
          ("ops.samples", float_of_int samples);
          ("ops.p99_samples_beyond", float_of_int (samples_beyond 99.0 samples));
          ("trace.overhead_ratio", tp.wall_s /. untraced_wall);
        ]
    in
    Layers.values snap ~props

let finite v = if Float.is_finite v then v else 0.0

let json_metrics l =
  String.concat ","
    (List.map
       (fun (name, unit, v) ->
         Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" name (finite v) unit)
       l)

let floats l = String.concat "," (List.map (Printf.sprintf "%.4f") l)

let trace_file name seed = Printf.sprintf "_build/perfbench/trace-%s-%d.json" name seed

(* The declared metrics of a section with this run's values.  Every
   end-to-end metric has a value on every workload.  A per-layer metric
   this workload does not produce (another workload's property, say)
   reads 0; [selftest] checks that some workload produces each one. *)
let report section values =
  List.map
    (fun (n, u) ->
      match List.assoc_opt n values with
      | Some v -> (n, u, v)
      | None when section = "per_layer" -> (n, u, 0.0)
      | None -> failwith ("no value for end-to-end metric " ^ n))
    (declared section)

let run ~name ~seed ~seconds ~trace =
  match find_workload name with
  | None ->
    Printf.eprintf "unknown workload %S\n" name;
    2
  | Some (W w as wl) ->
    let exp = Expected.load w.name in
    let m = measure wl ~tiny:false ~seed ~seconds ~trace in
    let trace_path =
      match m.traced with
      | None -> ""
      | Some (_, snap) ->
        mkdir_p (Filename.dirname (trace_file name seed));
        (match Obs.write_file ~path:(trace_file name seed) (Obs.trace_json snap) with
        | Ok () -> trace_file name seed
        | Error msg -> failwith msg)
    in
    let metrics =
      if trace then report "per_layer" (layer_values m)
      else report "end_to_end" (e2e_values m)
    in
    let props = props_median m in
    Printf.printf
      "{\"workload\":%S,\"seed\":%d,\"jobs\":%d,\"nproc\":%d,\"ocaml\":%S,\"cold_setups_s\":[%s],\"cold_peaks_mb\":[%s],\"pass_walls_s\":[%s],\"trace_file\":%S,\"properties\":{%s}}\n"
      name seed (Par.jobs ()) (nproc ()) Sys.ocaml_version
      (floats (List.map (fun c -> c.setup_s) m.colds))
      (floats (List.map (fun c -> c.peak_mb) m.colds))
      (floats (List.map (fun (p, _) -> p.wall_s) m.passes))
      trace_path
      (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%.17g" k (finite v)) props));
    let failed = failed exp m in
    Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
      (failed = 0)
      (List.length (all_ops m))
      failed (json_metrics metrics);
    0

(* --- selftest ------------------------------------------------------ *)

(* Each workload at tiny size, traced: its outputs must pass the check
   and fail it once one expected value is perturbed; where flows ran,
   the reported self times must account for [flow.synthesize]; it must
   produce every end-to-end metric and no per-layer metric that
   BENCHMARK.json does not declare.  Across the workloads every declared
   per-layer metric must be produced.  Each workload runs in a process
   of its own, because [measure] forks and a process that has run a
   workload has started domains. *)
let selftest () =
  let ok = ref true in
  let check what pass =
    if not pass then begin
      ok := false;
      Printf.printf "FAIL: %s\n%!" what
    end
  in
  let e2e = declared "end_to_end" and per_layer = declared "per_layer" in
  let produced = Hashtbl.create 128 in
  let one (W w as wl) () =
      let m = measure wl ~tiny:true ~seed:1 ~seconds:0.0 ~trace:true in
      let exp = Expected.load w.name in
      let f0 = failed exp m in
      let layers = layer_values m and ends = e2e_values m in
      let value n = List.assoc n layers in
      let share = value "flow.accounted_share" in
      let key = (List.hd (all_ops m)).key in
      Expected.perturb exp key;
      let f1 = failed exp m in
      Printf.printf
        "%-10s tiny run: %d ops, %d failed; perturbed %S: %d failed; flow calls %g, accounted share %.4f\n%!"
        w.name (List.length (all_ops m)) f0 key f1 (value "flow.calls") share;
      check (w.name ^ ": outputs pass the check") (f0 = 0);
      check (w.name ^ ": a perturbed expected value fails the check") (f1 > 0);
      check
        (w.name ^ ": reported self times account for flow.synthesize")
        (value "flow.calls" = 0.0 || share > 0.99);
      List.iter
        (fun (n, _) -> check (w.name ^ ": end-to-end " ^ n ^ " has a value") (List.mem_assoc n ends))
        e2e;
      List.iter
        (fun (n, _) ->
          check (w.name ^ ": " ^ n ^ " is declared in BENCHMARK.json") (List.mem_assoc n per_layer))
        layers;
      (!ok, List.map fst layers)
  in
  List.iter
    (fun wl ->
      let passed, layers = in_child (one wl) in
      if not passed then ok := false;
      List.iter (fun n -> Hashtbl.replace produced n ()) layers)
    workloads;
  List.iter
    (fun (n, _) -> check ("some workload produces " ^ n) (Hashtbl.mem produced n))
    per_layer;
  if !ok then 0 else 1

(* --- command line -------------------------------------------------- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let code =
    match args with
    | "run" :: rest ->
      let rec parse acc = function
        | k :: v :: rest -> parse ((k, v) :: acc) rest
        | [] -> acc
        | [ k ] -> failwith ("missing value for " ^ k)
      in
      let o = parse [] rest in
      let get k =
        match List.assoc_opt k o with Some v -> v | None -> failwith ("missing " ^ k)
      in
      run ~name:(get "--workload")
        ~seed:(int_of_string (get "--seed"))
        ~seconds:(float_of_string (get "--seconds"))
        ~trace:(get "--trace" = "1")
    | [ "expect" ] -> Validate.expect ()
    | [ "validate" ] -> Validate.validate ()
    | [ "selftest" ] -> selftest ()
    | _ ->
      prerr_endline "usage: main.exe run|expect|validate|selftest";
      2
  in
  Par.shutdown ();
  exit code
