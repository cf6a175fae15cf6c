(* Per-layer numbers of a traced pass, read from the [Obs] spans and
   counters the program records plus the benchmark's own spans around
   its calls into each layer.  A span's self time is its duration minus
   the part of it that its child spans on the same worker index
   cover. *)

module Obs = Rtcad_obs.Obs

type span_stat = { mutable calls : int; mutable total : float; mutable self : float }

type spans = {
  by_name : (string, span_stat) Hashtbl.t;
  flow_accounted_ms : float;
      (** self time of the [reported] spans inside a [flow.synthesize]
          subtree, the root included *)
}

let eps = 1e-6

(* The flow stages with a span of their own; normalisation has none and
   is the self time of [flow.synthesize]. *)
let stages = [ "encode"; "reach"; "assume"; "prune"; "synth"; "emit"; "verify" ]

(* The spans whose self time a per-layer metric reports.  Inside a
   [flow.synthesize] span any other span's self time is reported
   nowhere, and pulls [flow.accounted_share] below 1. *)
let reported =
  ("flow.synthesize" :: List.map (fun s -> "flow." ^ s) stages)
  @ [ "csc.resolve"; "sg.build"; "sg.symbolic" ]

let span_stats (snap : Obs.snapshot) =
  let by_name = Hashtbl.create 32 in
  let accounted = ref 0.0 in
  let workers = List.sort_uniq Int.compare (List.map fst snap.Obs.events) in
  List.iter
    (fun w ->
      let evs =
        Array.of_list
          (List.filter_map (fun (w', e) -> if w' = w then Some e else None) snap.Obs.events)
      in
      Array.stable_sort
        (fun (a : Obs.span_ev) (b : Obs.span_ev) ->
          match Float.compare a.Obs.sp_ts_ms b.Obs.sp_ts_ms with
          | 0 -> Float.compare b.Obs.sp_dur_ms a.Obs.sp_dur_ms
          | c -> c)
        evs;
      let n = Array.length evs in
      let covered = Array.make n 0.0 and in_flow = Array.make n false in
      let stop i = evs.(i).Obs.sp_ts_ms +. evs.(i).Obs.sp_dur_ms in
      let stack = ref [] in
      Array.iteri
        (fun i (e : Obs.span_ev) ->
          let rec unwind () =
            match !stack with
            | p :: rest when stop p <= e.Obs.sp_ts_ms +. eps ->
              stack := rest;
              unwind ()
            | _ -> ()
          in
          unwind ();
          let parent =
            match !stack with
            | p :: _ when stop i <= stop p +. eps -> Some p
            | _ -> None
          in
          Option.iter
            (fun p ->
              covered.(p) <- covered.(p) +. (Float.min (stop i) (stop p) -. e.Obs.sp_ts_ms))
            parent;
          in_flow.(i) <-
            e.Obs.sp_name = "flow.synthesize"
            || (match parent with Some p -> in_flow.(p) | None -> false);
          stack := i :: !stack)
        evs;
      Array.iteri
        (fun i (e : Obs.span_ev) ->
          let self = Float.max 0.0 (e.Obs.sp_dur_ms -. covered.(i)) in
          let st =
            match Hashtbl.find_opt by_name e.Obs.sp_name with
            | Some st -> st
            | None ->
              let st = { calls = 0; total = 0.0; self = 0.0 } in
              Hashtbl.replace by_name e.Obs.sp_name st;
              st
          in
          st.calls <- st.calls + 1;
          st.total <- st.total +. e.Obs.sp_dur_ms;
          st.self <- st.self +. self;
          if in_flow.(i) && List.mem e.Obs.sp_name reported then
            accounted := !accounted +. self)
        evs)
    workers;
  { by_name; flow_accounted_ms = !accounted }

let ratio a b = if b > 0.0 then a /. b else 0.0

(* Every per-layer number of a traced pass, by metric name.  [props]
   are the workload's own per-pass numbers (medians over the untraced
   passes): workload properties, client-side latencies, the Gc deltas,
   and the operation sample counts. *)
let values (snap : Obs.snapshot) ~props =
  let sp = span_stats snap in
  let span f name =
    match Hashtbl.find_opt sp.by_name name with Some s -> f s | None -> 0.0
  in
  let self = span (fun s -> s.self) and total = span (fun s -> s.total) in
  let calls = span (fun s -> float_of_int s.calls) in
  let c name = float_of_int (Obs.counter snap name) in
  let g name =
    match Obs.metric snap name with Some (Obs.Gauge_v f) -> f | _ -> 0.0
  in
  let out = ref (List.rev props) in
  let set k v = out := (k, v) :: !out in
  set "flow.normalize.self_ms" (self "flow.synthesize");
  List.iter (fun s -> set (Printf.sprintf "flow.%s.self_ms" s) (self ("flow." ^ s))) stages;
  set "flow.calls" (calls "flow.synthesize");
  set "flow.synthesize.total_ms" (total "flow.synthesize");
  set "flow.accounted_share" (ratio sp.flow_accounted_ms (total "flow.synthesize"));
  set "csc.resolve.self_ms" (self "csc.resolve");
  List.iter (fun k -> set k (c k)) [ "csc.candidates"; "csc.survivors" ];
  set "csc.survivor_ratio" (ratio (c "csc.survivors") (c "csc.candidates"));
  set "sg.build.self_ms" (self "sg.build");
  List.iter (fun k -> set k (c k)) [ "sg.builds"; "sg.states"; "sg.edges" ];
  set "sg.symbolic.self_ms" (self "sg.symbolic");
  List.iter
    (fun k -> set k (c k))
    [ "sg.symbolic.image_ops"; "sg.symbolic.levels"; "sg.symbolic.reused";
      "sg.symbolic.seeded"; "sg.symbolic.seed_fallback" ];
  set "sg.symbolic.seeded_ratio" (ratio (c "sg.symbolic.seeded") (calls "sg.symbolic"));
  List.iter (fun k -> set k (g k))
    [ "bdd.unique_nodes"; "bdd.op_cache_hit_rate"; "bdd.gc_runs"; "bdd.reorders" ];
  List.iter
    (fun k -> set k (c k))
    [ "rt.timed_sim.steps"; "synth.bdd_nodes.on_set"; "synth.bdd_nodes.off_set";
      "flow.cache.hit"; "flow.cache.miss"; "flow.cache.store"; "flow.cache.disk_hit";
      "flow.cache.covers_hit"; "flow.cache.flow_hit"; "flow.cache.corrupt";
      "serve.cache.hit"; "serve.cache.miss"; "serve.cache.store"; "serve.cache.evict";
      "serve.cache.corrupt"; "serve.requests"; "serve.error"; "serve.shed";
      "serve.mux.waves"; "serve.mux.wave_items"; "netlist.sim.runs";
      "netlist.sim.events"; "netlist.sim.transitions"; "rappid.instructions";
      "rappid.lines" ];
  set "flow.cache.hit_ratio"
    (ratio (c "flow.cache.hit") (c "flow.cache.hit" +. c "flow.cache.miss"));
  set "serve.cache.hit_ratio"
    (ratio (c "serve.cache.hit") (c "serve.cache.hit" +. c "serve.cache.miss"));
  set "serve.mux.items_per_wave" (ratio (c "serve.mux.wave_items") (c "serve.mux.waves"));
  set "serve.request.self_ms" (self "serve.request");
  set "harness.measure_ms" (total "harness.measure");
  set "netlist.sim.events_per_s"
    (ratio (c "netlist.sim.events") (total "harness.measure" /. 1000.0));
  set "rappid.farm_ms" (total "rappid.farm");
  set "rappid.shards" (calls "rappid.shard");
  List.rev !out
