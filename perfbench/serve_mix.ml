(* serve_mix: an in-process [Mux] daemon configured as
   [rtsyn serve --socket --cache-dir] configures it (a response cache
   and a flow store, both with disk tiers, in a fresh directory per
   pass), driven by two closed-loop client connections: each client is
   a tool or CI job that waits for its reply before sending the next
   request.  Requests are seeded Zipf draws over a fixed pool of cheap
   distinct requests, so first sightings write both tiers, repeats are
   served from the response cache, and style variants miss it but
   replay the store's [covers] stage.  Serve, the cache, the store and
   the mux do most of the work here and none in the other workloads.
   Heavy misses stay out: they belong to synth_cold and made this mix
   swing by 30% from run to run when they were in it. *)

open Common
module Serve = Rtcad_serve.Serve
module Mux = Rtcad_serve.Mux
module Cache = Rtcad_serve.Cache
module Json = Rtcad_serve.Json
module Store = Rtcad_core.Store

let clients = 2
let requests_per_client ~tiny = if tiny then 40 else 750

(* Request bodies without the [id] field: builtin spec names only, so
   every request text is parser-faithful. *)
let pool () =
  let q s = "\"" ^ s ^ "\"" in
  let styles = [ ""; ",\"style\":\"static\""; ",\"style\":\"domino\""; ",\"style\":\"domino-unfooted\"" ] in
  let synth spec modes =
    List.concat_map
      (fun m ->
        List.map
          (fun st -> Printf.sprintf "{\"op\":\"synth\",\"spec\":%s%s%s}" (q spec) m st)
          styles)
      modes
  in
  let rt = [ ",\"mode\":\"rt\""; ",\"mode\":\"rt\",\"no_lazy\":true" ] in
  let si = [ ",\"mode\":\"si\"" ] in
  List.concat_map
    (fun s -> synth s (rt @ si))
    [ "fifo"; "celement"; "pipeline"; "selector"; "toggle"; "call" ]
  @ List.concat_map (fun s -> synth s rt) [ "ring3"; "ring4"; "ring5" ]
  @ List.concat_map
      (fun n ->
        List.map
          (fun e -> Printf.sprintf "{\"op\":\"check\",\"spec\":\"ring%d\",\"engine\":%s}" n (q e))
          [ "explicit"; "symbolic" ])
      [ 3; 4; 5; 6; 7; 8 ]
  @ List.concat_map
      (fun c ->
        List.map
          (fun n -> Printf.sprintf "{\"op\":\"sim\",\"circuit\":%s,\"cycles\":%d}" (q c) n)
          [ 12; 50; 200 ])
      [ "si"; "rt-bm"; "rt"; "pulse" ]
  @ List.concat_map
      (fun seed ->
        List.map
          (fun n ->
            Printf.sprintf
              "{\"op\":\"sim\",\"circuit\":\"rappid\",\"seed\":%d,\"instructions\":%d}"
              seed n)
          [ 2000; 20000 ])
      [ 1; 7; 11 ]

(* Zipf(1) over the pool in its listed order: synthesis requests are
   the hot head of the mix, checks and simulations its tail.  Each key
   is sent its Zipf share of the requests (largest-remainder rounding),
   so every pass does the same work; the seed shuffles the order the
   requests arrive in and deals them to the clients. *)
let scripts ~tiny ~seed =
  let pool = Array.of_list (pool ()) in
  let total = clients * requests_per_client ~tiny in
  let weights = Array.mapi (fun i _ -> 1.0 /. float_of_int (i + 1)) pool in
  let h = Array.fold_left ( +. ) 0.0 weights in
  let exact = Array.map (fun w -> w /. h *. float_of_int total) weights in
  let counts = Array.map (fun x -> int_of_float (Float.floor x)) exact in
  let short = total - Array.fold_left ( + ) 0 counts in
  let by_remainder =
    List.sort
      (fun i j ->
        Float.compare
          (exact.(j) -. Float.floor exact.(j))
          (exact.(i) -. Float.floor exact.(i)))
      (List.init (Array.length pool) Fun.id)
  in
  List.iteri (fun r i -> if r < short then counts.(i) <- counts.(i) + 1) by_remainder;
  let draws =
    List.concat (List.init (Array.length pool) (fun i -> List.init counts.(i) (fun _ -> pool.(i))))
  in
  let order = shuffle (rng ~seed ~salt:3) draws in
  List.init clients (fun c -> List.filteri (fun k _ -> k mod clients = c) order)

type daemon = {
  dir : string;
  path : string;
  cache : Cache.t;
  thread : Thread.t;
  scripts : string list list;
}

let counter = ref 0

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec go tries =
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when tries > 0 ->
      Thread.delay 0.002;
      go (tries - 1)
    | exception e ->
      Unix.close fd;
      raise e
  in
  go 2500

(* A blocking line client.  Latencies and raw responses stay in the
   thread's own buffers: systhreads share one domain's [Obs] store, so
   client-side timing never goes through it. *)
let exchange fd =
  let pending = ref "" in
  let chunk = Bytes.create 65536 in
  let rec read_line () =
    match String.index_opt !pending '\n' with
    | Some i ->
      let line = String.sub !pending 0 i in
      pending := String.sub !pending (i + 1) (String.length !pending - i - 1);
      line
    | None -> (
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line ()
      | 0 -> failwith "daemon closed the connection"
      | n ->
        pending := !pending ^ Bytes.sub_string chunk 0 n;
        read_line ())
  in
  fun line ->
    let line = line ^ "\n" in
    let rec send pos =
      if pos < String.length line then
        send (pos + Unix.write_substring fd line pos (String.length line - pos))
    in
    send 0;
    read_line ()

let setup ~tiny ~seed =
  incr counter;
  let dir =
    Printf.sprintf "_build/perfbench/serve-%d-%d" (Unix.getpid ()) !counter
  in
  rm_rf dir;
  mkdir_p dir;
  let cache = Cache.create ~dir () in
  let flow_store = Store.create ~dir:(Filename.concat dir "flow") () in
  let cfg = Serve.default_config ~cache ~flow_store () in
  let path = Filename.concat dir "d.sock" in
  let thread = Thread.create (fun () -> ignore (Mux.run (Mux.default cfg) ~path)) () in
  Unix.close (connect path);
  { dir; path; cache; thread; scripts = scripts ~tiny ~seed }

let teardown d =
  (match connect d.path with
  | fd ->
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> try ignore ((exchange fd) "{\"op\":\"shutdown\"}") with _ -> ())
  | exception _ -> ());
  Thread.join d.thread;
  rm_rf d.dir

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* The checked output of a response: its [ok] flag and [result],
   keyed by request content; [cached] and [id] are left out because
   they depend on how the clients interleave. *)
let output_of raw =
  match Json.parse raw with
  | exception _ -> None
  | j -> (
    match (Json.member "ok" j, Json.member "result" j) with
    | Some (Json.Bool true as ok), Some result ->
      Some (Json.to_string (Json.Obj [ ("ok", ok); ("result", result) ]))
    | _ -> None)

(* One (request, ms, raw response) per request of the script.  A request
   the client never got an answer to (it could not connect, or its
   connection broke) gets an empty response, which fails the check. *)
let run_client path script =
  let answered = ref [] in
  (try
     let fd = connect path in
     Fun.protect
       ~finally:(fun () -> Unix.close fd)
       (fun () ->
         let send = exchange fd in
         List.iteri
           (fun i body ->
             let line =
               Printf.sprintf "{\"id\":%d,%s" i (String.sub body 1 (String.length body - 1))
             in
             let t0 = now () in
             let raw = try send line with _ -> "" in
             answered := (body, (now () -. t0) *. 1000.0, raw) :: !answered)
           script)
   with _ -> ());
  let n = List.length !answered in
  List.rev !answered
  @ List.filteri (fun k _ -> k >= n) (List.map (fun body -> (body, 0.0, "")) script)

let pass d =
  let results = Array.make clients [] in
  let (), wall_s =
    time (fun () ->
        let threads =
          List.mapi
            (fun i script ->
              Thread.create (fun () -> results.(i) <- run_client d.path script) ())
            d.scripts
        in
        List.iter Thread.join threads)
  in
  let ops =
    List.concat_map
      (List.map (fun (key, ms, raw) ->
           { key; ms; digest = Option.map digest (output_of raw); cached = contains raw "\"cached\":true" }))
      (Array.to_list results)
  in
  let total = List.length ops in
  let distinct = Hashtbl.create 256 in
  List.iter (fun (o : op) -> Hashtbl.replace distinct o.key ()) ops;
  let share op =
    float_of_int
      (List.length (List.filter (fun (o : op) -> contains o.key ("\"op\":\"" ^ op ^ "\"")) ops))
    /. float_of_int (max 1 total)
  in
  let lat pred = List.filter_map (fun (o : op) -> if pred o then Some o.ms else None) ops in
  let hits = lat (fun o -> o.cached) and misses = lat (fun o -> not o.cached) in
  {
    wall_s;
    ops;
    props =
      [
        ("serve_mix.requests", float_of_int total);
        ("serve_mix.distinct_keys", float_of_int (Hashtbl.length distinct));
        ( "serve_mix.repeat_share",
          1.0 -. (float_of_int (Hashtbl.length distinct) /. float_of_int (max 1 total)) );
        ("serve_mix.synth_share", share "synth");
        ("serve_mix.check_share", share "check");
        ("serve_mix.sim_share", share "sim");
        ("serve.hit_p50_ms", percentile 50.0 hits);
        ("serve.miss_p50_ms", percentile 50.0 misses);
        ("serve.miss_p99_ms", percentile 99.0 misses);
        ("serve.miss_samples", float_of_int (List.length misses));
        ("serve.cache.retained_bytes", float_of_int (Cache.stats d.cache).Cache.retained_bytes);
      ];
  }

(* Every request of the pool, answered by an in-process session with
   its own fresh cache: the reference the daemon's answers must match. *)
let all_outputs () =
  List.map
    (fun body ->
      let cfg = Serve.default_config () in
      match Serve.run_lines cfg [ body ] with
      | [ raw ] -> (body, output_of raw)
      | _ -> (body, None))
    (pool ())
