module Iheap = Rtcad_util.Iheap
module Vec = Rtcad_util.Vec
module Obs = Rtcad_obs.Obs
module Vcd = Rtcad_obs.Vcd

exception Oscillation of string

type event = {
  id : int;
  net : Netlist.net;
  value : bool;
  at : float;
  cause : int option; (* id of the event whose commit scheduled this one *)
}

(* The steady-state event loop allocates nothing: the netlist structure
   (per-gate input pins, per-net fanout) is flattened into int arrays at
   creation, gate inputs are gathered into a reusable scratch buffer,
   delays and energies are precomputed per net, and queue entries are
   single ints.

   Queue payload layout: bit 0 = direct-drive flag, bit 1 = target value,
   bits 2-23 = net, bits 24+ = generation (scheduled events) or
   cause + 1 (direct drives, 0 = none).

   Pending (inertial) state per net: [pending_gen.(net)] is the
   generation of the outstanding event (0 = none) and [pending_info]
   packs [(cause + 1) lsl 1 lor target]. *)
type t = {
  nl : Netlist.t;
  values : bool array;
  forced : bool array; (* net is stuck *)
  is_output : bool array;
  gate_of : Gate.t array; (* per driven net; arbitrary gate elsewhere *)
  pins : int array array; (* per driven net: (input net lsl 1) lor negated *)
  fanout : int array array; (* per net: driven nets reading it *)
  delay_fs : int array; (* per driven net: gate delay, memoized *)
  energy_pj_of : float array; (* per net: driver energy per transition *)
  scratch : bool array; (* gate-input gather buffer, max fan-in wide *)
  pending_gen : int array;
  pending_info : int array;
  mutable gen_counter : int;
  queue : Iheap.t;
  mutable now_fs : int;
  transitions : int array;
  mutable glitch_count : int;
  energy : float array; (* pJ; 1-cell array keeps the float unboxed *)
  callbacks : (t -> bool -> unit) list array; (* reversed registration order *)
  tr_word : int Vec.t; (* trace: (net lsl 1) lor value *)
  tr_at : int Vec.t; (* trace: commit time, fs *)
  ev_word : int Vec.t; (* events: (net lsl 1) lor value *)
  ev_at : int Vec.t;
  ev_cause : int Vec.t; (* cause + 1, 0 = none *)
}

let fs_of_ps ps = int_of_float (Float.round (ps *. 1000.0))
let ps_of_fs fs = float_of_int fs /. 1000.0

let netlist t = t.nl
let time t = ps_of_fs t.now_fs
let value t net = t.values.(net)

let payload ~direct ~target ~net ~extra =
  (extra lsl 24) lor (net lsl 2)
  lor ((if target then 1 else 0) lsl 1)
  lor (if direct then 1 else 0)

let schedule t net target ~cause ~at_fs =
  if not (Array.unsafe_get t.forced net) then begin
    let pgen = Array.unsafe_get t.pending_gen net in
    if pgen <> 0 && Array.unsafe_get t.pending_info net land 1 = (if target then 1 else 0)
    then () (* same target already pending *)
    else if target <> Array.unsafe_get t.values net then begin
      let gen = t.gen_counter + 1 in
      t.gen_counter <- gen;
      if pgen <> 0 then t.glitch_count <- t.glitch_count + 1;
      Array.unsafe_set t.pending_gen net gen;
      Array.unsafe_set t.pending_info net
        (((cause + 1) lsl 1) lor if target then 1 else 0);
      Iheap.push t.queue at_fs (payload ~direct:false ~target ~net ~extra:gen)
    end
    else if pgen <> 0 then begin
      (* Re-evaluation back to the committed value cancels the pending
         contrary event: an inertial glitch. *)
      Array.unsafe_set t.pending_gen net 0;
      t.glitch_count <- t.glitch_count + 1
    end
  end

let eval_gate t out =
  let pins = t.pins.(out) in
  let n = Array.length pins in
  if n = 0 then t.values.(out) (* undriven *)
  else begin
    let s = t.scratch in
    for k = 0 to n - 1 do
      let p = Array.unsafe_get pins k in
      Array.unsafe_set s k (Array.unsafe_get t.values (p lsr 1) <> (p land 1 = 1))
    done;
    Gate.eval_arr (Array.unsafe_get t.gate_of out) ~current:(Array.unsafe_get t.values out) s ~n
  end

let react t net ~cause =
  (* Re-evaluate every gate reading [net]. *)
  let fo = t.fanout.(net) in
  for k = 0 to Array.length fo - 1 do
    let out = Array.unsafe_get fo k in
    let target = eval_gate t out in
    schedule t out target ~cause ~at_fs:(t.now_fs + Array.unsafe_get t.delay_fs out)
  done

(* Callbacks are stored in reverse registration order (cons on register,
   so {!on_change} is O(1)); firing recurses to the tail first to call
   them in registration order. *)
let rec fire_callbacks t v = function
  | [] -> ()
  | f :: rest ->
    fire_callbacks t v rest;
    f t v

(* Change-only is enforced HERE, not at call sites: observers (and the
   VCD writer built on them) rely on one notification per actual value
   change, so the guard lives at the single point every path funnels
   through rather than being re-implemented by each caller. *)
let commit t net v ~cause =
  if t.values.(net) <> v then begin
    t.values.(net) <- v;
    t.transitions.(net) <- t.transitions.(net) + 1;
    t.energy.(0) <- t.energy.(0) +. Array.unsafe_get t.energy_pj_of net;
    if t.is_output.(net) then begin
      Vec.push t.tr_word ((net lsl 1) lor if v then 1 else 0);
      Vec.push t.tr_at t.now_fs
    end;
    let id = Vec.length t.ev_word in
    Vec.push t.ev_word ((net lsl 1) lor if v then 1 else 0);
    Vec.push t.ev_at t.now_fs;
    Vec.push t.ev_cause (cause + 1);
    react t net ~cause:id;
    fire_callbacks t v t.callbacks.(net)
  end

let create ?(delay = fun _ g -> Gate.delay_ps g) ?(forced = []) nl =
  let n = Netlist.num_nets nl in
  if n > 0x3fffff then invalid_arg "Sim.create: too many nets";
  let is_output = Array.make n false in
  List.iter (fun o -> is_output.(o) <- true) (Netlist.outputs nl);
  let dummy_gate = Gate.make Gate.Buf ~fanin:1 in
  let gate_of = Array.make n dummy_gate in
  let pins = Array.make n [||] in
  let delay_fs = Array.make n 0 in
  let energy_pj_of = Array.make n 0.0 in
  let max_fanin = ref 1 in
  List.iter
    (fun (out, g, ins) ->
      gate_of.(out) <- g;
      pins.(out) <-
        Array.of_list
          (List.map (fun (i, neg) -> (i lsl 1) lor if neg then 1 else 0) ins);
      if Array.length pins.(out) > !max_fanin then max_fanin := Array.length pins.(out);
      delay_fs.(out) <- fs_of_ps (delay out g);
      energy_pj_of.(out) <- Gate.energy_fj g /. 1000.0)
    (Netlist.gates nl);
  let fanout = Array.init n (fun net -> Array.of_list (Netlist.fanout nl net)) in
  let t =
    {
      nl;
      values = Array.init n (Netlist.initial_value nl);
      forced = Array.make n false;
      is_output;
      gate_of;
      pins;
      fanout;
      delay_fs;
      energy_pj_of;
      scratch = Array.make !max_fanin false;
      pending_gen = Array.make n 0;
      pending_info = Array.make n 0;
      gen_counter = 0;
      queue = Iheap.create ();
      now_fs = 0;
      transitions = Array.make n 0;
      glitch_count = 0;
      energy = [| 0.0 |];
      callbacks = Array.make n [];
      tr_word = Vec.create ~dummy:0 ();
      tr_at = Vec.create ~dummy:0 ();
      ev_word = Vec.create ~dummy:0 ();
      ev_at = Vec.create ~dummy:0 ();
      ev_cause = Vec.create ~dummy:0 ();
    }
  in
  List.iter
    (fun (net, v) ->
      t.forced.(net) <- true;
      t.values.(net) <- v)
    forced;
  (* Kick: schedule any gate whose evaluation disagrees with its initial
     value so that [settle] resolves inconsistent power-up states. *)
  List.iter
    (fun (out, _, _) ->
      let target = eval_gate t out in
      if target <> t.values.(out) then
        schedule t out target ~cause:(-1) ~at_fs:delay_fs.(out))
    (Netlist.gates nl);
  t

(* Input drives bypass the inertial pending slot: a queued pulse train
   (several future edges on the same net) must not cancel itself.  The
   payload's direct bit marks such events. *)
let drive ?cause t net v ~after =
  if not (Netlist.is_input t.nl net) then invalid_arg "Sim.drive: not a primary input";
  if after < 0.0 then invalid_arg "Sim.drive: negative delay";
  if not t.forced.(net) then begin
    let c = match cause with None -> -1 | Some c -> c in
    Iheap.push t.queue
      (t.now_fs + fs_of_ps after)
      (payload ~direct:true ~target:v ~net ~extra:(c + 1))
  end

let mk_event t i =
  let w = Vec.get t.ev_word i and c = Vec.get t.ev_cause i in
  {
    id = i;
    net = w lsr 1;
    value = w land 1 = 1;
    at = ps_of_fs (Vec.get t.ev_at i);
    cause = (if c = 0 then None else Some (c - 1));
  }

let last_event t =
  let n = Vec.length t.ev_word in
  if n = 0 then None else Some (mk_event t (n - 1))

let on_change t net f = t.callbacks.(net) <- f :: t.callbacks.(net)

(* VCD capture rides the ordinary observer mechanism: one callback per
   net, each emitting one change at the simulator's femtosecond clock.
   Because [commit] is change-only, the resulting stream is a legal
   change-only dump by construction, and a simulator with no writer
   attached pays nothing. *)
let attach_vcd t w =
  let n = Array.length t.values in
  for net = 0 to n - 1 do
    let s = Vcd.add_signal w ~initial:t.values.(net) (Netlist.net_name t.nl net) in
    on_change t net (fun t v -> Vcd.change w ~time:t.now_fs s v)
  done

let step t =
  if Iheap.is_empty t.queue then false
  else begin
    let at_fs = Iheap.top_key t.queue and pl = Iheap.top_value t.queue in
    Iheap.drop_min t.queue;
    if at_fs > t.now_fs then t.now_fs <- at_fs;
    let net = (pl lsr 2) land 0x3fffff in
    let target = pl land 2 <> 0 in
    if pl land 1 = 1 then commit t net target ~cause:((pl lsr 24) - 1)
    else begin
      let gen = pl lsr 24 in
      if t.pending_gen.(net) = gen then begin
        t.pending_gen.(net) <- 0;
        commit t net target ~cause:((t.pending_info.(net) lsr 1) - 1)
      end
      (* otherwise cancelled or superseded *)
    end;
    true
  end

(* Observability records at run granularity (deltas after the loop),
   never inside the event loop, so the kernel itself is untouched. *)
let record_run t ~events ~commits0 ~glitches0 ~depth0 =
  Obs.incr "netlist.sim.runs";
  Obs.incr ~by:events "netlist.sim.events";
  Obs.incr ~by:(Vec.length t.ev_word - commits0) "netlist.sim.transitions";
  Obs.incr ~by:(t.glitch_count - glitches0) "netlist.sim.glitches";
  Obs.observe "netlist.sim.queue_depth" (float_of_int depth0)

let run ?(max_events = 2_000_000) t ~until =
  let commits0 = Vec.length t.ev_word
  and glitches0 = t.glitch_count
  and depth0 = Iheap.length t.queue in
  let until_fs = fs_of_ps until in
  let budget = ref max_events in
  let continue = ref true in
  while !continue do
    if Iheap.is_empty t.queue || Iheap.top_key t.queue > until_fs then begin
      t.now_fs <- max t.now_fs until_fs;
      continue := false
    end
    else begin
      if !budget <= 0 then raise (Oscillation "event budget exhausted");
      decr budget;
      ignore (step t)
    end
  done;
  if Obs.enabled () then
    record_run t ~events:(max_events - !budget) ~commits0 ~glitches0 ~depth0

let settle ?(max_events = 2_000_000) t () =
  let commits0 = Vec.length t.ev_word
  and glitches0 = t.glitch_count
  and depth0 = Iheap.length t.queue in
  let budget = ref max_events in
  while not (Iheap.is_empty t.queue) do
    if !budget <= 0 then raise (Oscillation "event budget exhausted");
    decr budget;
    ignore (step t)
  done;
  if Obs.enabled () then
    record_run t ~events:(max_events - !budget) ~commits0 ~glitches0 ~depth0

let transition_count t net = t.transitions.(net)
let glitches t = t.glitch_count
let energy_pj t = t.energy.(0)

let trace t =
  let rec go i acc =
    if i < 0 then acc
    else
      let w = Vec.get t.tr_word i in
      go (i - 1) ((ps_of_fs (Vec.get t.tr_at i), w lsr 1, w land 1 = 1) :: acc)
  in
  go (Vec.length t.tr_word - 1) []

let events t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (mk_event t i :: acc) in
  go (Vec.length t.ev_word - 1) []
