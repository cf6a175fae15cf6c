(* Structured tracing and metrics, zero-cost when disabled.

   Design constraints, in order:

   1. The disabled path must be invisible to the paired benchmark gate
      (`bench/ab.py`, whose perfbench runs are untraced): every entry
      point opens with a single load-and-branch on [enabled_flag] and
      touches nothing else — no allocation, no DLS lookup, no clock
      read.

   2. Enabled recording must be deterministic under the worker pool.
      Every domain writes only to a store keyed by its [Par.worker_index]
      (not its domain id), and {!snapshot} merges stores in ascending
      worker-index order.  Counter and histogram merges are sums —
      associative and commutative — so totals depend only on what work
      ran, never on which domain ran it; the deterministic merge order
      additionally pins down gauge resolution and trace-event grouping.

   3. Within one worker a store is only ever touched by the single domain
      currently holding that index (Par regions join before the index is
      reused), so stores need no locks; only the store registry does. *)

module Par = Rtcad_par.Par

let enabled_flag = ref false
let[@inline] enabled () = !enabled_flag

(* Wall-clock origin of the current recording session; span timestamps
   are relative to it so traces start near zero. *)
let epoch = ref 0.0
let time_ms () = Unix.gettimeofday () *. 1000.0

(* --- per-worker stores --- *)

type hist = {
  mutable h_count : int;
  mutable h_sum : float;
  h_buckets : int array; (* h_buckets.(i) counts observations <= bounds.(i) *)
}

(* 1-2-5 decades from 1 to 1e9, plus an overflow bucket. *)
let bounds =
  [|
    1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1e3; 2e3; 5e3; 1e4; 2e4; 5e4;
    1e5; 2e5; 5e5; 1e6; 2e6; 5e6; 1e7; 2e7; 5e7; 1e8; 2e8; 5e8; 1e9;
  |]

let bucket_of v =
  let n = Array.length bounds in
  let rec go i = if i >= n || v <= bounds.(i) then i else go (i + 1) in
  go 0

let hist_bounds = bounds

(* Percentile estimate over 1-2-5 buckets: find the bucket holding the
   requested rank and interpolate linearly inside it.  The estimate is
   upper-edge biased (a bucket's observations are assumed spread over
   its whole span), deterministic, and depends only on the counts — so
   merged histograms yield the same percentiles at any job count. *)
let percentile_of_buckets ~counts p =
  if Array.length counts <> Array.length bounds + 1 then
    invalid_arg "Obs.percentile_of_buckets: counts must cover every bucket";
  if not (p >= 0.0 && p <= 100.0) then
    invalid_arg "Obs.percentile_of_buckets: percentile out of [0,100]";
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then 0.0
  else begin
    let rank = max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int total))) in
    let rec go i cum =
      if i > Array.length bounds then infinity
      else
        let c = counts.(i) in
        if cum + c >= rank && c > 0 then
          if i = Array.length bounds then infinity
          else begin
            let hi = bounds.(i) in
            let lo = if i = 0 then 0.0 else bounds.(i - 1) in
            lo +. ((hi -. lo) *. (float_of_int (rank - cum) /. float_of_int c))
          end
        else go (i + 1) (cum + c)
    in
    go 0 0
  end

type metric =
  | Counter of int ref
  | Gauge of float ref
  | Hist of hist

type span_ev = {
  sp_name : string;
  sp_ts_ms : float; (* relative to [epoch] *)
  sp_dur_ms : float;
  sp_args : (string * string) list;
}

type store = {
  generation : int;
  metrics : (string, metric) Hashtbl.t;
  mutable spans : span_ev list; (* reversed *)
  mutable nspans : int;
}

let registry : (int, store) Hashtbl.t = Hashtbl.create 8
let registry_m = Mutex.create ()
let generation = ref 0

(* Per-domain cache of (generation, worker index, store): valid as long
   as neither the recording session nor the domain's worker index has
   changed, so steady-state recording does one DLS read and two int
   compares before touching the store. *)
let cache_key :
    (int * int * store) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let store () =
  let wi = Par.worker_index () in
  let cache = Domain.DLS.get cache_key in
  match !cache with
  | Some (g, i, s) when g = !generation && i = wi -> s
  | _ ->
    Mutex.lock registry_m;
    let s =
      match Hashtbl.find_opt registry wi with
      | Some s when s.generation = !generation -> s
      | _ ->
        let s =
          {
            generation = !generation;
            metrics = Hashtbl.create 32;
            spans = [];
            nspans = 0;
          }
        in
        Hashtbl.replace registry wi s;
        s
    in
    Mutex.unlock registry_m;
    cache := Some (!generation, wi, s);
    s

let reset () =
  Mutex.lock registry_m;
  incr generation;
  Hashtbl.reset registry;
  Mutex.unlock registry_m;
  epoch := time_ms ()

let set_enabled b =
  if b && not !enabled_flag then reset ();
  enabled_flag := b

(* --- recording --- *)

let counter_cell s name =
  match Hashtbl.find_opt s.metrics name with
  | Some (Counter c) -> c
  | Some _ -> invalid_arg ("Obs: metric kind mismatch for " ^ name)
  | None ->
    let c = ref 0 in
    Hashtbl.replace s.metrics name (Counter c);
    c

let incr ?(by = 1) name =
  if !enabled_flag then begin
    let c = counter_cell (store ()) name in
    c := !c + by
  end

let set_gauge name v =
  if !enabled_flag then begin
    let s = store () in
    match Hashtbl.find_opt s.metrics name with
    | Some (Gauge g) -> g := v
    | Some _ -> invalid_arg ("Obs: metric kind mismatch for " ^ name)
    | None -> Hashtbl.replace s.metrics name (Gauge (ref v))
  end

let observe name v =
  if !enabled_flag then begin
    let s = store () in
    let h =
      match Hashtbl.find_opt s.metrics name with
      | Some (Hist h) -> h
      | Some _ -> invalid_arg ("Obs: metric kind mismatch for " ^ name)
      | None ->
        let h =
          { h_count = 0; h_sum = 0.0; h_buckets = Array.make (Array.length bounds + 1) 0 }
        in
        Hashtbl.replace s.metrics name (Hist h);
        h
    in
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    let b = bucket_of v in
    h.h_buckets.(b) <- h.h_buckets.(b) + 1
  end

(* Bulk merge: fold an externally-accumulated histogram (same 1-2-5
   ladder, e.g. the RAPPID farm's per-shard latency counts) into a
   named metric without paying a name lookup per observation.  [sum]
   carries the true observation total so means stay exact. *)
let observe_buckets name ~counts ~sum =
  if !enabled_flag then begin
    if Array.length counts <> Array.length bounds + 1 then
      invalid_arg "Obs.observe_buckets: counts must cover every bucket";
    let s = store () in
    let h =
      match Hashtbl.find_opt s.metrics name with
      | Some (Hist h) -> h
      | Some _ -> invalid_arg ("Obs: metric kind mismatch for " ^ name)
      | None ->
        let h =
          { h_count = 0; h_sum = 0.0; h_buckets = Array.make (Array.length bounds + 1) 0 }
        in
        Hashtbl.replace s.metrics name (Hist h);
        h
    in
    let n = Array.fold_left ( + ) 0 counts in
    h.h_count <- h.h_count + n;
    h.h_sum <- h.h_sum +. sum;
    Array.iteri (fun i c -> h.h_buckets.(i) <- h.h_buckets.(i) + c) counts
  end

let record_span s name ~ts ~dur args =
  s.spans <- { sp_name = name; sp_ts_ms = ts; sp_dur_ms = dur; sp_args = args } :: s.spans;
  s.nspans <- s.nspans + 1

let span ?(args = fun () -> []) name f =
  if not !enabled_flag then f ()
  else begin
    let t0 = time_ms () in
    let finish () =
      let t1 = time_ms () in
      record_span (store ()) name ~ts:(t0 -. !epoch) ~dur:(t1 -. t0) (args ())
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish ();
      Printexc.raise_with_backtrace e bt
  end

(* A stage cost is needed whether or not anything is recorded, so the
   clock is read either way; the span itself is [span]'s. *)
let timed name f =
  let t0 = time_ms () in
  let v = span name f in
  (v, time_ms () -. t0)

(* --- snapshots --- *)

type value =
  | Count of int
  | Gauge_v of float
  | Hist_v of { count : int; sum : float; buckets : (float * int) list }

type span_agg = { name : string; calls : int; wall_ms : float }

type snapshot = {
  jobs : int;
  metrics : (string * value) list; (* sorted by name *)
  span_aggs : span_agg list; (* sorted by name *)
  events : (int * span_ev) list; (* (worker index, event), index-major order *)
}

let merge_metric acc (name, m) =
  let v =
    match m with
    | Counter c -> Count !c
    | Gauge g -> Gauge_v !g
    | Hist h ->
      let buckets = ref [] in
      for i = Array.length h.h_buckets - 1 downto 0 do
        if h.h_buckets.(i) > 0 then begin
          let bound = if i < Array.length bounds then bounds.(i) else infinity in
          buckets := (bound, h.h_buckets.(i)) :: !buckets
        end
      done;
      Hist_v { count = h.h_count; sum = h.h_sum; buckets = !buckets }
  in
  let merged =
    match (List.assoc_opt name acc, v) with
    | None, v -> v
    | Some (Count a), Count b -> Count (a + b)
    (* First (= lowest worker index) setter wins: gauges are set from the
       initiating domain in practice, and a deterministic rule keeps the
       snapshot independent of merge accidents. *)
    | Some (Gauge_v a), Gauge_v _ -> Gauge_v a
    | Some (Hist_v a), Hist_v b ->
      let rec add acc = function
        | [] -> acc
        | (bound, n) :: rest ->
          let acc =
            match List.assoc_opt bound acc with
            | None -> (bound, n) :: acc
            | Some m ->
              (bound, n + m) :: List.filter (fun (b', _) -> b' <> bound) acc
          in
          add acc rest
      in
      Hist_v
        {
          count = a.count + b.count;
          sum = a.sum +. b.sum;
          buckets = List.sort compare (add a.buckets b.buckets);
        }
    | Some _, _ -> invalid_arg ("Obs: metric kind mismatch across workers for " ^ name)
  in
  (name, merged) :: List.remove_assoc name acc

let snapshot () =
  Mutex.lock registry_m;
  let stores =
    Hashtbl.fold (fun wi s acc -> (wi, s) :: acc) registry []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  Mutex.unlock registry_m;
  let metrics =
    List.fold_left
      (fun acc ((_, s) : int * store) ->
        Hashtbl.fold (fun name m acc -> (name, m) :: acc) s.metrics []
        |> List.sort compare
        |> List.fold_left (fun acc nm -> merge_metric acc nm) acc)
      [] stores
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let events =
    List.concat_map (fun (wi, s) -> List.rev_map (fun e -> (wi, e)) s.spans) stores
  in
  let span_aggs =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (_, e) ->
        let calls, total =
          match Hashtbl.find_opt tbl e.sp_name with
          | None -> (0, 0.0)
          | Some ct -> ct
        in
        Hashtbl.replace tbl e.sp_name (calls + 1, total +. e.sp_dur_ms))
      events;
    Hashtbl.fold (fun name (calls, wall_ms) acc -> { name; calls; wall_ms } :: acc) tbl []
    |> List.sort (fun a b -> String.compare a.name b.name)
  in
  { jobs = Par.jobs (); metrics; span_aggs; events }

let metric snap name = List.assoc_opt name snap.metrics

let counter snap name =
  match metric snap name with Some (Count n) -> n | _ -> 0

(* Percentiles of a merged snapshot histogram: rebuild the dense bucket
   array (snapshots only keep non-empty buckets) and estimate. *)
let percentile v p =
  match v with
  | Hist_v h ->
    let counts = Array.make (Array.length bounds + 1) 0 in
    List.iter
      (fun (bound, n) ->
        let i = bucket_of bound in
        counts.(i) <- counts.(i) + n)
      h.buckets;
    Some (percentile_of_buckets ~counts p)
  | Count _ | Gauge_v _ -> None

(* --- sinks --- *)

let pp_summary ppf snap =
  Format.fprintf ppf "@[<v>observability summary (jobs %d)@," snap.jobs;
  if snap.span_aggs <> [] then begin
    Format.fprintf ppf "spans:@,";
    List.iter
      (fun a ->
        Format.fprintf ppf "  %-32s %6d call(s) %10.2f ms@," a.name a.calls a.wall_ms)
      snap.span_aggs
  end;
  if snap.metrics <> [] then begin
    Format.fprintf ppf "metrics:@,";
    List.iter
      (fun (name, v) ->
        match v with
        | Count n -> Format.fprintf ppf "  %-32s %d@," name n
        | Gauge_v g -> Format.fprintf ppf "  %-32s %g@," name g
        | Hist_v h ->
          Format.fprintf ppf "  %-32s count %d, sum %g, mean %g@," name h.count h.sum
            (if h.count = 0 then 0.0 else h.sum /. float_of_int h.count))
      snap.metrics
  end;
  Format.fprintf ppf "@]"

(* JSON is assembled by hand: a fixed field order and explicit number
   formats keep the output byte-stable for golden comparison. *)
let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 32 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.6g" f

let summary_json ?(normalised = false) snap =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf "  \"jobs\": %d,\n" (if normalised then 0 else snap.jobs));
  Buffer.add_string b "  \"metrics\": {";
  List.iteri
    (fun i (name, v) ->
      Buffer.add_string b (if i = 0 then "\n" else ",\n");
      Buffer.add_string b (Printf.sprintf "    \"%s\": " (json_escape name));
      match v with
      | Count n -> Buffer.add_string b (string_of_int n)
      | Gauge_v g -> Buffer.add_string b (json_float g)
      | Hist_v h ->
        Buffer.add_string b
          (Printf.sprintf "{\"count\": %d, \"sum\": %s, \"buckets\": {" h.count
             (json_float h.sum));
        List.iteri
          (fun j (bound, n) ->
            Buffer.add_string b
              (Printf.sprintf "%s\"%s\": %d"
                 (if j = 0 then "" else ", ")
                 (if bound = infinity then "inf" else json_float bound)
                 n))
          h.buckets;
        Buffer.add_string b "}}")
    snap.metrics;
  Buffer.add_string b "\n  },\n";
  Buffer.add_string b "  \"spans\": [";
  List.iteri
    (fun i a ->
      Buffer.add_string b (if i = 0 then "\n" else ",\n");
      Buffer.add_string b
        (Printf.sprintf "    {\"name\": \"%s\", \"calls\": %d, \"wall_ms\": %s}"
           (json_escape a.name) a.calls
           (if normalised then "0" else json_float a.wall_ms)))
    snap.span_aggs;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

let trace_json snap =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[\n";
  let first = ref true in
  let emit line =
    if not !first then Buffer.add_string b ",\n";
    first := false;
    Buffer.add_string b line
  in
  List.iter
    (fun (wi, e) ->
      let args =
        match e.sp_args with
        | [] -> ""
        | kvs ->
          Printf.sprintf ", \"args\": {%s}"
            (String.concat ", "
               (List.map
                  (fun (k, v) ->
                    Printf.sprintf "\"%s\": \"%s\"" (json_escape k) (json_escape v))
                  kvs))
      in
      emit
        (Printf.sprintf
           "{\"name\": \"%s\", \"cat\": \"rtcad\", \"ph\": \"X\", \"pid\": 1, \
            \"tid\": %d, \"ts\": %s, \"dur\": %s%s}"
           (json_escape e.sp_name) wi
           (json_float (e.sp_ts_ms *. 1000.0))
           (json_float (e.sp_dur_ms *. 1000.0))
           args))
    snap.events;
  List.iter
    (fun (name, v) ->
      match v with
      | Count n ->
        emit
          (Printf.sprintf
             "{\"name\": \"%s\", \"ph\": \"C\", \"pid\": 1, \"tid\": 0, \"ts\": 0, \
              \"args\": {\"value\": %d}}"
             (json_escape name) n)
      | Gauge_v _ | Hist_v _ -> ())
    snap.metrics;
  Buffer.add_string b "\n]\n";
  Buffer.contents b

let write_file ~path data =
  match open_out_bin path with
  | exception Sys_error msg -> Error msg
  | oc -> (
    match
      output_string oc data;
      close_out oc
    with
    | () -> Ok ()
    | exception Sys_error msg ->
      (try close_out_noerr oc with _ -> ());
      (try Sys.remove path with Sys_error _ -> ());
      Error msg)
