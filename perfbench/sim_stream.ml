(* sim_stream: simulator host throughput with no synthesis or serving in
   the timed region.  The 10M-instruction RAPPID decoder farm (4
   shards) runs the [Rappid]/[Workload] streaming core; the four
   Table-2 FIFO netlists, synthesized during set-up, each run a long
   handshake through [Harness], which drives the [Netlist.Sim] event
   loop.  The simulated statistics are outputs to check, bit for bit. *)

open Common
module R = Rtcad_rappid.Rappid
module W = Rtcad_rappid.Workload
module Harness = Rtcad_core.Harness
module Table2 = Rtcad_core.Table2
module Fifo_impls = Rtcad_core.Fifo_impls
module Obs = Rtcad_obs.Obs

let shards = 4

(* RAPPID stream seeds with committed expected results; the workload
   seed picks one.  Seed 7 is the golden-corpus seed. *)
let rappid_seeds = [| 7; 11; 23; 42 |]

let instructions ~tiny = if tiny then 200_000 else 10_000_000
let fifo_cycles ~tiny = if tiny then 2_000 else 100_000

type variant = { v : Fifo_impls.variant; period_ps : float option }

type inputs = {
  rappid_seed : int;
  instrs : int;
  cycles : int;
  variants : variant list;
}

let variants () =
  List.map
    (fun (v : Fifo_impls.variant) ->
      {
        v;
        period_ps =
          (if v.Fifo_impls.pulse then
             Some (Harness.pulse_min_period ~cycles:40 v.Fifo_impls.netlist)
           else None);
      })
    (Fifo_impls.all ())

let setup ~tiny ~seed =
  {
    rappid_seed = rappid_seeds.(abs seed mod Array.length rappid_seeds);
    instrs = instructions ~tiny;
    cycles = fifo_cycles ~tiny;
    variants = variants ();
  }

let rappid_key ~seed ~instrs = Printf.sprintf "rappid/seed%d/%d/shards%d" seed instrs shards

(* Deterministic fields of a farm run: the merged result, the latency
   histogram and its percentiles. *)
let farm_text (f : R.farm) =
  let s = f.R.f_stats in
  Printf.sprintf "%s\nhist %s\np50 %h p95 %h p99 %h\nshards %s\n"
    (R.summary_json s.R.s_result)
    (String.concat " " (Array.to_list (Array.map string_of_int s.R.s_hist)))
    s.R.s_p50_ps s.R.s_p95_ps s.R.s_p99_ps
    (String.concat " " (Array.to_list (Array.map string_of_int f.R.f_shard_instructions)))

let run_farm ~seed ~instrs =
  R.run_farm ~shards ~seed W.typical ~instructions:instrs

let fifo_key name cycles = Printf.sprintf "fifo/%s/%d" name cycles

let measurement_text (m : Harness.measurement) =
  Printf.sprintf "cycles %d worst %h avg %h fwd %h energy %h glitches %d" m.Harness.cycles
    m.Harness.worst_delay_ps m.Harness.avg_delay_ps m.Harness.avg_forward_ps
    m.Harness.energy_per_cycle_pj m.Harness.glitches

(* The Table-2 stimulus of each variant: its fastest allowed
   environment, or its minimum pulse period. *)
let measure ~cycles { v; period_ps } =
  match period_ps with
  | Some period_ps -> Harness.measure_pulse ~period_ps ~cycles v.Fifo_impls.netlist
  | None ->
    Harness.measure_fourphase ~env:(Table2.env_for v) ~cycles v.Fifo_impls.netlist

let pass i =
  let run () =
    let farm =
      Obs.span "rappid.farm" (fun () ->
          op_of
            ~key:(rappid_key ~seed:i.rappid_seed ~instrs:i.instrs)
            (fun () -> run_farm ~seed:i.rappid_seed ~instrs:i.instrs)
            farm_text)
    in
    let fifos =
      List.map
        (fun var ->
          Obs.span "harness.measure"
            ~args:(fun () -> [ ("variant", var.v.Fifo_impls.name) ])
            (fun () ->
              op_of
                ~key:(fifo_key var.v.Fifo_impls.name i.cycles)
                (fun () -> measure ~cycles:i.cycles var)
                measurement_text))
        i.variants
    in
    (farm, fifos)
  in
  let (farm, fifos), wall_s = time run in
  let fifo_ms = List.fold_left (fun a (o : op) -> a +. o.ms) 0.0 fifos in
  let fifo_cycles = i.cycles * List.length fifos in
  {
    wall_s;
    ops = farm :: fifos;
    props =
      [
        ("sim_stream.instructions", float_of_int i.instrs);
        ("sim_stream.fifo_cycles", float_of_int fifo_cycles);
        ("sim.rappid_instrs_per_s", float_of_int i.instrs /. (farm.ms /. 1000.0));
        ("sim.fifo_cycles_per_s", float_of_int fifo_cycles /. (fifo_ms /. 1000.0));
      ];
  }

(* Every key the workload can produce, at both sizes. *)
let all_outputs () =
  let vs = variants () in
  List.concat_map
    (fun tiny ->
      let instrs = instructions ~tiny and cycles = fifo_cycles ~tiny in
      List.map
        (fun seed ->
          (rappid_key ~seed ~instrs, farm_text (run_farm ~seed ~instrs)))
        (Array.to_list rappid_seeds)
      @ List.map
          (fun var ->
            (fifo_key var.v.Fifo_impls.name cycles, measurement_text (measure ~cycles var)))
          vs)
    [ true; false ]
