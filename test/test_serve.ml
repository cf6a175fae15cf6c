(* Server-grade test battery for the synthesis service (lib/serve).

   The session core is exercised directly through [Serve.run_lines] /
   [Serve.feed] — the same engine both drivers wrap — so these tests
   cover the protocol, the cache and the determinism contract without
   forking processes; the stdio driver itself is covered by the
   [test/cli/serve.t] cram test and the socket driver by an in-process
   client thread below. *)

module Serve = Rtcad_serve.Serve
module Cache = Rtcad_serve.Cache
module Mux = Rtcad_serve.Mux
module Json = Rtcad_serve.Json
module Par = Rtcad_par.Par
module Obs = Rtcad_obs.Obs
module Flow = Rtcad_core.Flow
module Stg_io = Rtcad_stg.Stg_io
module Library = Rtcad_stg.Library

let with_jobs n f =
  let prev = Par.jobs () in
  Par.set_jobs n;
  Fun.protect ~finally:(fun () -> Par.set_jobs prev) f

let config ?cache ?(queue = 64) ?(timeout_ms = None) () =
  { (Serve.default_config ?cache ()) with Serve.queue; timeout_ms }

let req fmt = Printf.sprintf fmt

(* Response-line accessors (every response is a one-line JSON object). *)
let field line name =
  match Json.member name (Json.parse line) with
  | Some v -> v
  | None -> Alcotest.failf "response %s lacks field %S" line name

let is_ok line = Json.to_bool (field line "ok") = Some true
let str_of line name = Option.get (Json.to_str (field line name))

let error_kind line =
  match Json.member "kind" (field line "error") with
  | Some (Json.String k) -> k
  | _ -> Alcotest.failf "response %s lacks error.kind" line

let cached line =
  match field line "cached" with
  | Json.Bool b -> b
  | _ -> Alcotest.failf "response %s lacks cached" line

let result_str line = Json.to_string (field line "result")

(* Stats responses embed wall-clock compute costs ("retained_ms" and the
   per-shard "ms"), the one nondeterministic part of the wire format:
   zero them before comparing streams byte-for-byte. *)
let mask_ms line =
  let keys = [ "\"retained_ms\":"; "\"ms\":" ] in
  let n = String.length line in
  let b = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    let hit =
      List.find_opt
        (fun k ->
          let kl = String.length k in
          !i + kl <= n && String.sub line !i kl = k)
        keys
    in
    match hit with
    | Some k ->
      Buffer.add_string b k;
      Buffer.add_char b '0';
      i := !i + String.length k;
      while
        !i < n
        && match line.[!i] with '0' .. '9' | '.' | '-' -> true | _ -> false
      do
        incr i
      done
    | None ->
      Buffer.add_char b line.[!i];
      incr i
  done;
  Buffer.contents b

(* --- JSON module --- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("a", Json.Int 3);
        ("b", Json.List [ Json.Null; Json.Bool true; Json.Float 2.5 ]);
        ("c", Json.String "line\nbreak \"quoted\" \t tab");
        ("d", Json.Obj [ ("nested", Json.String "ünïcode") ]);
      ]
  in
  let s = Json.to_string v in
  Alcotest.(check bool) "one line" false (String.contains s '\n');
  Alcotest.(check bool) "round-trips" true (Json.parse s = v);
  Alcotest.(check bool)
    "unicode escapes decode" true
    (Json.parse {|"\u00e9\ud83d\ude00"|} = Json.String "\xc3\xa9\xf0\x9f\x98\x80")

let test_json_rejects () =
  let rejects s =
    match Json.parse s with
    | exception Json.Parse_error _ -> ()
    | _ -> Alcotest.failf "parser accepted %S" s
  in
  rejects "";
  rejects "{";
  rejects "{\"a\":1,\"a\":2}";
  (* duplicate keys are ambiguous *)
  rejects "[1,2,]";
  rejects "{\"a\":1} trailing"

let test_cache_key () =
  Alcotest.(check bool)
    "length prefix separates parts" false
    (String.equal (Cache.key [ "ab"; "c" ]) (Cache.key [ "a"; "bc" ]));
  Alcotest.(check string)
    "key is stable" (Cache.key [ "x"; "y" ]) (Cache.key [ "x"; "y" ])

let test_fingerprint () =
  let fps =
    List.map Flow.fingerprint
      [
        Flow.Si;
        Flow.rt_default;
        Flow.Rt { user = []; allow_input_first = true; allow_lazy = true };
        Flow.Rt { user = []; allow_input_first = false; allow_lazy = false };
        Flow.Rt
          {
            user = [ (("ri", Rtcad_stg.Stg.Fall), ("li", Rtcad_stg.Stg.Rise)) ];
            allow_input_first = false;
            allow_lazy = true;
          };
      ]
  in
  Alcotest.(check int)
    "mode fingerprints are distinct" (List.length fps)
    (List.length (List.sort_uniq compare fps))

(* --- determinism: byte-identical response streams at any job count --- *)

let mixed_script =
  [
    req {|{"op":"ping"}|};
    req {|{"op":"batch"}|};
    req {|{"op":"check","spec":"fifo"}|};
    req {|{"op":"check","spec":"ring4"}|};
    req {|{"op":"synth","spec":"fifo","mode":"si"}|};
    req {|{"op":"check","spec":"fifo","engine":"symbolic"}|};
    req {|{"op":"check","spec":"toggle"}|};
    req {|{"op":"flush"}|};
    (* batching persists across a flush: this second wave accumulates *)
    req {|{"op":"check","spec":"fifo"}|};
    (* repeat: hit *)
    req {|{"op":"sim","spec":"fifo","steps":24}|};
    req {|{"op":"synth","spec":"celement","mode":"rt"}|};
    req {|{"op":"flush"}|};
    req {|{"op":"stats"}|};
  ]

let test_determinism_across_jobs () =
  let run () = List.map mask_ms (Serve.run_lines (config ()) mixed_script) in
  let at1 = with_jobs 1 run and at2 = with_jobs 2 run in
  Alcotest.(check (list string)) "responses at jobs 1 = jobs 2" at1 at2;
  (* The repeat after the flush must have hit the cache. *)
  let repeat = List.nth at1 8 in
  Alcotest.(check bool) "repeat is a hit" true (cached repeat)

(* --- load shedding --- *)

let test_load_shedding () =
  let s = Serve.session (config ~queue:2 ()) in
  let out = Buffer.create 256 in
  let feed line = List.iter (fun r -> Buffer.add_string out (r ^ "\n")) (Serve.feed s line) in
  feed (req {|{"op":"batch"}|});
  for i = 1 to 5 do
    feed (req {|{"id":%d,"op":"check","spec":"fifo"}|} i)
  done;
  feed (req {|{"id":99,"op":"flush"}|});
  feed (req {|{"id":100,"op":"ping"}|});
  let lines =
    String.split_on_char '\n' (Buffer.contents out) |> List.filter (fun l -> l <> "")
  in
  (* batch ack + 5 work responses + flush ack + pong *)
  Alcotest.(check int) "response count" 8 (List.length lines);
  let work = List.filteri (fun i _ -> i >= 1 && i <= 5) lines in
  let oks, shed = List.partition is_ok work in
  Alcotest.(check int) "admitted up to the bound" 2 (List.length oks);
  Alcotest.(check int) "the rest shed" 3 (List.length shed);
  List.iter
    (fun l -> Alcotest.(check string) "shed kind" "overloaded" (error_kind l))
    shed;
  (* Shedding preserves arrival order and ids. *)
  List.iteri
    (fun i l ->
      Alcotest.(check bool)
        (Printf.sprintf "slot %d id" i)
        true
        (field l "id" = Json.Int (i + 1)))
    work;
  let flush_ack = List.nth lines 6 in
  Alcotest.(check string) "flush ack" (Json.to_string (Json.Obj [ ("flushed", Json.Int 2); ("shed", Json.Int 3) ]))
    (result_str flush_ack);
  (* The connection survives: the session still answers. *)
  Alcotest.(check bool) "session alive after shedding" true (is_ok (List.nth lines 7));
  Alcotest.(check bool) "not stopped" false (Serve.stopped s)

(* --- robustness: no input kills the session --- *)

let test_malformed_never_kills () =
  let script =
    [
      "";
      "not json at all";
      "{\"op\":\"check\"}";
      (* missing spec *)
      "{\"op\":\"check\",\"spec\":\"no_such_spec\"}";
      "{\"op\":\"check\",\"spec\":\"fifo\",\"bogus\":1}";
      "{\"op\":\"frobnicate\"}";
      "{\"op\":\"check\",\"spec\":\".inputs a\\na+ a-\\n\"}";
      (* graph line outside .graph: spec parse error *)
      "[1,2,3]";
      "{\"op\":\"sim\",\"circuit\":\"warp-core\"}";
      req {|{"op":"check","spec":"fifo"}|};
    ]
  in
  let responses = Serve.run_lines (config ()) script in
  (* The empty line still gets a parse_error response: 10 in, 10 out. *)
  Alcotest.(check int) "every line answered" 10 (List.length responses);
  let last = List.nth responses 9 in
  Alcotest.(check bool) "healthy request still served" true (is_ok last);
  List.iteri
    (fun i l ->
      if i < 9 then
        Alcotest.(check bool) (Printf.sprintf "line %d is an error" i) false (is_ok l))
    responses

let test_timeout_budget () =
  let responses =
    Serve.run_lines
      (config ~timeout_ms:(Some 0.0) ())
      [ req {|{"op":"check","spec":"fifo"}|} ]
  in
  Alcotest.(check string) "timeout kind" "timeout" (error_kind (List.nth responses 0))

(* --- cache correctness --- *)

(* Whitespace/comment perturbations the .g lexer normalizes away: the
   canonical rendering — and therefore the cache key — must not move. *)
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
         (line :: extras))
       lines)

let spec_pool () =
  List.map
    (fun (name, stg) -> (name, Stg_io.to_string stg))
    (Library.all_named ())

let check_response ?(engine = "auto") text =
  let request =
    Json.to_string
      (Json.Obj
         [
           ("op", Json.String "check");
           ("spec", Json.String text);
           ("engine", Json.String engine);
         ])
  in
  match Serve.run_lines (config ()) [ request ] with
  | [ line ] ->
    if not (is_ok line) then Alcotest.failf "check failed: %s" line;
    line
  | other -> Alcotest.failf "expected 1 response, got %d" (List.length other)

let test_canonical_hash_property =
  QCheck.Test.make ~count:30
    ~name:"canonical-hash equality implies identical responses across engines"
    QCheck.(pair (int_range 0 6) (int_range 1 1000))
    (fun (which, seed) ->
      let name, text = List.nth (spec_pool ()) which in
      let perturbed = perturb seed text in
      (* Same canonical hash... *)
      let pristine = check_response ~engine:"explicit" text in
      let explicit = check_response ~engine:"explicit" perturbed in
      let symbolic = check_response ~engine:"symbolic" perturbed in
      (* ...same key (per engine) and the engines agree on the verdict. *)
      if str_of pristine "key" <> str_of explicit "key" then
        QCheck.Test.fail_reportf "perturbation moved the cache key for %s" name;
      if result_str explicit <> result_str pristine then
        QCheck.Test.fail_reportf "perturbation changed the explicit verdict for %s"
          name;
      if result_str explicit <> result_str symbolic then
        QCheck.Test.fail_reportf "engines disagree on %s:\n%s\n%s" name
          (result_str explicit) (result_str symbolic);
      true)

let with_tmpdir f =
  let path = Filename.temp_file "rtcad-serve-cache" "" in
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

let one_check cache =
  match
    Serve.run_lines (config ~cache ()) [ req {|{"op":"check","spec":"fifo"}|} ]
  with
  | [ line ] -> line
  | _ -> Alcotest.fail "expected one response"

let test_disk_tier_and_corruption () =
  with_tmpdir @@ fun dir ->
  (* Populate through one cache instance... *)
  let first = one_check (Cache.create ~dir ()) in
  Alcotest.(check bool) "first is a miss" false (cached first);
  (* ...a fresh instance (empty memory) hits the disk tier... *)
  let warm = one_check (Cache.create ~dir ()) in
  Alcotest.(check bool) "disk entry hits" true (cached warm);
  Alcotest.(check string) "disk payload identical" (result_str first) (result_str warm);
  (* ...then corrupt the stored payload: the checksum must reject it and
     the result must be recomputed, not served. *)
  let entry =
    match Sys.readdir dir with
    | [| e |] -> Filename.concat dir e
    | _ -> Alcotest.fail "expected exactly one disk entry"
  in
  let data =
    let ic = open_in_bin entry in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let flipped = Bytes.of_string data in
  let last = Bytes.length flipped - 1 in
  Bytes.set flipped last (if Bytes.get flipped last = 'x' then 'y' else 'x');
  let oc = open_out_bin entry in
  output_bytes oc flipped;
  close_out oc;
  let cache = Cache.create ~dir () in
  let recomputed = one_check cache in
  Alcotest.(check bool) "corrupt entry is a miss" false (cached recomputed);
  Alcotest.(check string) "recomputed, identical" (result_str first)
    (result_str recomputed);
  Alcotest.(check int) "corruption detected" 1 (Cache.stats cache).Cache.corrupt

let test_lru_eviction () =
  (* One shard so the capacity bound is global, as in the pre-sharded
     cache this test pins down. *)
  let cache = Cache.create ~shards:1 ~capacity:2 () in
  let script =
    List.map
      (fun s -> req {|{"op":"check","spec":%S}|} s)
      [ "fifo"; "toggle"; "fifo"; "celement"; "toggle" ]
  in
  let responses = Serve.run_lines (config ~cache ()) script in
  let flags = List.map cached responses in
  (* fifo(miss) toggle(miss) fifo(hit, touches) celement(miss, evicts
     toggle) toggle(miss again: it was the LRU victim) *)
  Alcotest.(check (list bool))
    "LRU hit/miss sequence"
    [ false; false; true; false; false ]
    flags;
  let st = Cache.stats cache in
  Alcotest.(check int) "evictions" 2 st.Cache.evictions;
  Alcotest.(check bool) "bound respected" true (st.Cache.entries <= 2)

let test_cost_eviction () =
  (* Entry cost = payload bytes + ceil(compute ms); the budget bounds the
     retained total and eviction is LRU by that cost. *)
  let c = Cache.create ~shards:1 ~budget:100 () in
  Cache.store ~cost_ms:30.0 c "a" (String.make 20 'a');
  (* cost 50 *)
  Cache.store ~cost_ms:20.0 c "b" (String.make 20 'b');
  (* cost 40: total 90, both fit *)
  Alcotest.(check int) "both under budget" 2 (Cache.stats c).Cache.entries;
  ignore (Cache.find c "a");
  (* touch: "b" becomes the LRU victim *)
  Cache.store c "d" (String.make 40 'd');
  (* cost 40: 130 > 100, evict "b" *)
  let st = Cache.stats c in
  Alcotest.(check int) "one eviction" 1 st.Cache.evictions;
  Alcotest.(check bool) "LRU victim gone" true (Cache.find c "b" = None);
  Alcotest.(check bool) "touched entry survives" true (Cache.find c "a" <> None);
  Alcotest.(check int) "retained bytes" 60 st.Cache.retained_bytes;
  Alcotest.(check (float 1e-6)) "retained ms" 30.0 st.Cache.retained_ms;
  (* A single entry dearer than the whole budget still caches: the entry
     just inserted is never its own victim. *)
  Cache.store c "huge" (String.make 500 'h');
  Alcotest.(check bool) "oversized entry cached" true (Cache.find c "huge" <> None);
  Alcotest.(check int) "everything else evicted" 1 (Cache.stats c).Cache.entries

let test_shard_distribution () =
  let c = Cache.create ~shards:4 () in
  for i = 1 to 64 do
    Cache.store ~cost_ms:1.0 c
      (Cache.key [ string_of_int i ])
      (Printf.sprintf "payload-%d" i)
  done;
  let st = Cache.stats c in
  Alcotest.(check int) "one stat per shard" 4 (List.length st.Cache.shards);
  Alcotest.(check int) "entries sum to total" st.Cache.entries
    (List.fold_left (fun a s -> a + s.Cache.sh_entries) 0 st.Cache.shards);
  Alcotest.(check int) "bytes sum to total" st.Cache.retained_bytes
    (List.fold_left (fun a s -> a + s.Cache.sh_bytes) 0 st.Cache.shards);
  Alcotest.(check (float 1e-6)) "ms sum to total" st.Cache.retained_ms
    (List.fold_left (fun a s -> a +. s.Cache.sh_ms) 0.0 st.Cache.shards);
  let populated =
    List.length (List.filter (fun s -> s.Cache.sh_entries > 0) st.Cache.shards)
  in
  Alcotest.(check bool) "hash prefix spreads the keys" true (populated > 1)

(* --- the acceptance scenario: 200 requests, >= 50% repeats, hit rate
   reported via rtcad_obs, zero crashes on interleaved malformed input --- *)

let test_acceptance_session () =
  let specs =
    [ "fifo"; "fifo_x"; "celement"; "pipeline"; "selector"; "toggle"; "call";
      "ring2"; "ring3"; "ring4" ]
  in
  let script =
    List.init 200 (fun i ->
        req {|{"op":"check","spec":%S}|} (List.nth specs (i mod 10)))
  in
  (* Interleave garbage: it must be answered and change nothing else. *)
  let script =
    List.concat_map
      (fun (i, line) -> if i mod 50 = 25 then [ "{broken"; line ] else [ line ])
      (List.mapi (fun i l -> (i, l)) script)
  in
  Obs.set_enabled true;
  let responses, snap =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled false)
      (fun () ->
        let r = Serve.run_lines (config ()) script in
        (r, Obs.snapshot ()))
  in
  Alcotest.(check int) "every line answered" (List.length script) (List.length responses);
  let ok, errors = List.partition is_ok responses in
  Alcotest.(check int) "all 200 work requests succeed" 200 (List.length ok);
  List.iter
    (fun l -> Alcotest.(check string) "garbage kind" "parse_error" (error_kind l))
    errors;
  let hits = Obs.counter snap "serve.cache.hit"
  and misses = Obs.counter snap "serve.cache.miss" in
  Alcotest.(check int) "requests counted" 200 (Obs.counter snap "serve.requests");
  Alcotest.(check int) "lookups" 200 (hits + misses);
  let rate = float_of_int hits /. float_of_int (hits + misses) in
  if rate < 0.45 then
    Alcotest.failf "cache hit rate %.2f below the 45%% acceptance bar" rate;
  (* The sharded cache mirrors its retained-cost totals into gauges, with
     a per-shard breakdown that must sum back to the totals. *)
  let gauge name =
    match Obs.metric snap name with
    | Some (Obs.Gauge_v v) -> v
    | _ -> Alcotest.failf "gauge %s missing from the obs snapshot" name
  in
  Alcotest.(check bool) "retained-bytes gauge positive" true
    (gauge "serve.cache.retained_bytes" > 0.0);
  let entries = gauge "serve.cache.entries" in
  Alcotest.(check bool) "entries gauge positive" true (entries > 0.0);
  let shard_sum field =
    let s = ref 0.0 in
    for i = 0 to 7 do
      s := !s +. gauge (Printf.sprintf "serve.cache.shard%d.%s" i field)
    done;
    !s
  in
  Alcotest.(check (float 1e-6)) "shard entry gauges sum to the total" entries
    (shard_sum "entries");
  Alcotest.(check (float 1e-6)) "shard byte gauges sum to the total"
    (gauge "serve.cache.retained_bytes")
    (shard_sum "bytes")

(* --- per-request observability capture --- *)

let test_obs_capture_normalised () =
  let run () =
    let cfg = { (config ()) with Serve.obs_mode = Serve.Obs_normalised } in
    Serve.run_lines cfg
      [ req {|{"op":"check","spec":"fifo"}|}; req {|{"op":"check","spec":"fifo"}|} ]
  in
  let at1 = with_jobs 1 run and at2 = with_jobs 2 run in
  Alcotest.(check (list string)) "captured responses deterministic" at1 at2;
  match at1 with
  | [ miss; hit ] ->
    let summary = str_of miss "obs" in
    Alcotest.(check bool) "summary is JSON" true (String.length summary > 2 && summary.[0] = '{');
    Alcotest.(check string) "hit replays the captured summary" summary (str_of hit "obs")
  | _ -> Alcotest.fail "expected two responses"

(* A sim request synthesizes its FIFO variant once, in the wave's
   compute: decoding only looks the circuit name up, so a repeated
   request is a pure cache hit, and an unknown name still errors before
   the wave. *)
let test_sim_decode_builds_nothing () =
  Obs.set_enabled true;
  let responses, snap =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled false)
      (fun () ->
        let sim = req {|{"op":"sim","circuit":"rt"}|} in
        let r = Serve.run_lines (config ()) [ sim; sim ] in
        (r, Obs.snapshot ()))
  in
  (match responses with
  | [ miss; hit ] ->
    Alcotest.(check bool) "both answered" true (is_ok miss && is_ok hit);
    Alcotest.(check bool) "repeat served from the cache" true
      ((not (cached miss)) && cached hit);
    Alcotest.(check string) "same measurement" (result_str miss) (result_str hit)
  | _ -> Alcotest.fail "expected two responses");
  let synths =
    List.filter (fun (_, e) -> e.Obs.sp_name = "flow.synthesize") snap.Obs.events
  in
  Alcotest.(check int) "one flow.synthesize span" 1 (List.length synths);
  match Serve.run_lines (config ()) [ req {|{"op":"sim","circuit":"nope"}|} ] with
  | [ line ] ->
    Alcotest.(check string) "unknown circuit kind" "bad_request" (error_kind line);
    Alcotest.(check (option string)) "unknown circuit message"
      (Some {|unknown circuit "nope" (si, rt-bm, rt, pulse or rappid)|})
      (Json.member "message" (field line "error") |> Fun.flip Option.bind Json.to_str)
  | _ -> Alcotest.fail "expected one response"

(* --- mux socket driver --- *)

let connect_retry path =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when tries > 0 ->
      Unix.close fd;
      Thread.delay 0.02;
      go (tries - 1)
  in
  go 250

let send_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  try go 0 with Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Blocking read until [count] complete lines arrive (or EOF). *)
let recv_lines fd count =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let newlines () =
    String.fold_left
      (fun acc c -> if c = '\n' then acc + 1 else acc)
      0 (Buffer.contents buf)
  in
  let rec go () =
    if newlines () < count then
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> l <> "")

(* Run a daemon at a fresh socket path, drive it with one thread per
   client script (each sends everything, then reads one response per
   line), shut it down, and return the per-client response streams. *)
let run_mux_session ?(mux = fun c -> c) scripts =
  with_tmpdir @@ fun dir ->
  let path = Filename.concat dir "rtsyn.sock" in
  let cfg = mux (Mux.default (config ())) in
  let server = Thread.create (fun () -> ignore (Mux.run cfg ~path)) () in
  let results = Array.make (List.length scripts) [] in
  let clients =
    List.mapi
      (fun i script ->
        Thread.create
          (fun () ->
            let fd = connect_retry path in
            send_all fd (String.concat "\n" script ^ "\n");
            results.(i) <- recv_lines fd (List.length script);
            Unix.close fd)
          ())
      scripts
  in
  List.iter Thread.join clients;
  let fd = connect_retry path in
  send_all fd "{\"op\":\"shutdown\"}\n";
  ignore (recv_lines fd 1);
  Unix.close fd;
  Thread.join server;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path);
  Array.to_list results

let test_socket_driver () =
  match
    run_mux_session
      [
        [
          req {|{"id":1,"op":"ping"}|};
          req {|{"id":2,"op":"check","spec":"fifo"}|};
        ];
      ]
  with
  | [ lines ] ->
    Alcotest.(check int) "two responses" 2 (List.length lines);
    Alcotest.(check bool) "pong" true (is_ok (List.nth lines 0));
    Alcotest.(check bool) "check served" true (is_ok (List.nth lines 1))
  | _ -> Alcotest.fail "expected one client stream"

(* Per-client streams must be a function of that client's own request
   stream alone: byte-identical across runs and across RTCAD_JOBS,
   whatever the interleaving with the other clients.  Keys are made
   per-client-unique (max_states enters the cache key) so each client's
   hit/miss pattern is deterministic even though the cache is shared. *)
let concurrency_script cid =
  let ms i = 10_000 + (100 * cid) + i in
  [
    req {|{"id":1,"op":"check","spec":"fifo","max_states":%d}|} (ms 1);
    "this is not a request";
    req {|{"id":2,"op":"check","spec":"toggle","max_states":%d}|} (ms 2);
    req {|{"id":3,"op":"check","spec":"fifo","max_states":%d}|} (ms 1);
    req {|{"id":4,"op":"check","spec":"celement","max_states":%d}|} (ms 3);
  ]

let test_mux_concurrent_determinism () =
  let scripts = List.init 3 concurrency_script in
  let run () = run_mux_session scripts in
  let first = with_jobs 1 run in
  let again = with_jobs 1 run in
  let at2 = with_jobs 2 run in
  Alcotest.(check (list (list string))) "re-run is byte-identical" first again;
  Alcotest.(check (list (list string))) "jobs 2 is byte-identical" first at2;
  List.iter
    (fun lines ->
      Alcotest.(check int) "every line answered" 5 (List.length lines);
      Alcotest.(check string) "garbage answered in place" "parse_error"
        (error_kind (List.nth lines 1));
      Alcotest.(check bool) "first sight is a miss" false (cached (List.nth lines 0));
      Alcotest.(check bool) "own repeat is a hit" true (cached (List.nth lines 3)))
    first

(* A client that floods large requests without draining responses gets
   its work shed with structured [overloaded] errors once its write
   queue passes the bound — while an unrelated client progresses
   normally the whole time. *)
let test_slow_reader_shed () =
  with_tmpdir @@ fun dir ->
  let path = Filename.concat dir "rtsyn.sock" in
  let cfg = { (Mux.default (config ())) with Mux.wq_limit = 4096 } in
  let server = Thread.create (fun () -> ignore (Mux.run cfg ~path)) () in
  let n = 30 in
  let flood =
    String.concat ""
      (List.init n (fun i ->
           req {|{"id":%d,"op":"sim","circuit":"si","cycles":400,"vcd":true}|} i
           ^ "\n"))
  in
  let a = connect_retry path in
  let b_lines = ref [] in
  let b =
    Thread.create
      (fun () ->
        let fd = connect_retry path in
        let script =
          List.init 10 (fun i ->
              req {|{"id":%d,"op":"check","spec":"ring%d"}|} i (i + 2))
        in
        send_all fd (String.concat "\n" script ^ "\n");
        b_lines := recv_lines fd 10;
        Unix.close fd)
      ()
  in
  (* Each response is ~64 KB; 30 of them dwarf the kernel socket buffers,
     so the daemon's write queue for A must back up past wq_limit. *)
  send_all a flood;
  Thread.join b;
  List.iter
    (fun l -> Alcotest.(check bool) "other client unaffected" true (is_ok l))
    !b_lines;
  let a_lines = recv_lines a n in
  Unix.close a;
  let fd = connect_retry path in
  send_all fd "{\"op\":\"shutdown\"}\n";
  ignore (recv_lines fd 1);
  Unix.close fd;
  Thread.join server;
  Alcotest.(check int) "every flooded request answered" n (List.length a_lines);
  let oks, shed = List.partition is_ok a_lines in
  Alcotest.(check bool) "some requests served" true (List.length oks >= 1);
  Alcotest.(check bool) "some requests shed" true (List.length shed >= 1);
  List.iter
    (fun l -> Alcotest.(check string) "shed kind" "overloaded" (error_kind l))
    shed

(* A client that vanishes abruptly with responses still queued must
   only lose its own connection: the daemon ignores SIGPIPE, so the
   broken-pipe write surfaces as EPIPE and kills that connection alone.
   (Without the Signal_ignore, the write would SIGPIPE this whole test
   process.) *)
let test_abrupt_disconnect () =
  with_tmpdir @@ fun dir ->
  let path = Filename.concat dir "rtsyn.sock" in
  let cfg = Mux.default (config ()) in
  let server = Thread.create (fun () -> ignore (Mux.run cfg ~path)) () in
  let a = connect_retry path in
  (* ~64 KB per response: enough queued output to outlive the kernel
     socket buffer, so bytes are still pending when the client vanishes
     and the daemon's next write hits the broken pipe. *)
  send_all a
    (String.concat ""
       (List.init 8 (fun i ->
            req {|{"id":%d,"op":"sim","circuit":"si","cycles":400,"vcd":true}|} i
            ^ "\n")));
  (* Give the daemon time to read, compute and fill the socket buffer,
     then vanish with everything unread. *)
  Thread.delay 0.3;
  Unix.close a;
  let fd = connect_retry path in
  send_all fd (req {|{"id":1,"op":"ping"}|} ^ "\n");
  (match recv_lines fd 1 with
  | [ l ] -> Alcotest.(check bool) "daemon alive after EPIPE" true (is_ok l)
  | _ -> Alcotest.fail "no response after abrupt disconnect");
  send_all fd "{\"op\":\"shutdown\"}\n";
  ignore (recv_lines fd 1);
  Unix.close fd;
  Thread.join server

(* Five batched misses at wave_max 2 must dispatch as exactly three
   fan-outs (2 + 2 + 1), observable through the serve.mux.waves counter. *)
let test_wave_splitting () =
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let before = Obs.counter (Obs.snapshot ()) "serve.mux.waves" in
  (match
     run_mux_session
       ~mux:(fun c -> { c with Mux.wave_max = 2 })
       [
         [
           req {|{"op":"batch"}|};
           req {|{"op":"check","spec":"ring2"}|};
           req {|{"op":"check","spec":"ring3"}|};
           req {|{"op":"check","spec":"ring4"}|};
           req {|{"op":"check","spec":"ring5"}|};
           req {|{"op":"check","spec":"ring6"}|};
           req {|{"op":"flush"}|};
         ];
       ]
   with
  | [ lines ] ->
    List.iter (fun l -> Alcotest.(check bool) "all ok" true (is_ok l)) lines
  | _ -> Alcotest.fail "expected one client stream");
  let after = Obs.counter (Obs.snapshot ()) "serve.mux.waves" in
  Alcotest.(check int) "5 misses at wave_max 2 = 3 waves" 3 (after - before)

(* A socket file left behind by a crashed daemon (bound, no listener) is
   probe-detected and reclaimed. *)
let test_stale_socket_reclaim () =
  with_tmpdir @@ fun dir ->
  let path = Filename.concat dir "rtsyn.sock" in
  let stale = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind stale (Unix.ADDR_UNIX path);
  Unix.close stale;
  Alcotest.(check bool) "stale file present" true (Sys.file_exists path);
  let server =
    Thread.create (fun () -> ignore (Mux.run (Mux.default (config ())) ~path)) ()
  in
  let fd = connect_retry path in
  send_all fd "{\"id\":1,\"op\":\"ping\"}\n{\"id\":2,\"op\":\"shutdown\"}\n";
  let lines = recv_lines fd 2 in
  Unix.close fd;
  Thread.join server;
  Alcotest.(check int) "served over the reclaimed path" 2 (List.length lines);
  Alcotest.(check bool) "pong" true (is_ok (List.nth lines 0))

(* A live daemon on the path is detected by the same probe and refused
   with a typed error instead of being unlinked from under it. *)
let test_busy_daemon () =
  with_tmpdir @@ fun dir ->
  let path = Filename.concat dir "rtsyn.sock" in
  let server =
    Thread.create (fun () -> ignore (Mux.run (Mux.default (config ())) ~path)) ()
  in
  let probe = connect_retry path in
  let refused =
    try
      ignore (Mux.run (Mux.default (config ())) ~path);
      false
    with Mux.Busy p -> p = path
  in
  Alcotest.(check bool) "second daemon refused with Busy" true refused;
  Alcotest.(check bool) "live socket kept" true (Sys.file_exists path);
  send_all probe "{\"op\":\"shutdown\"}\n";
  ignore (recv_lines probe 1);
  Unix.close probe;
  Thread.join server

let test_mux_validation () =
  with_tmpdir @@ fun dir ->
  let path = Filename.concat dir "rtsyn.sock" in
  let rejects patch =
    match Mux.run (patch (Mux.default (config ()))) ~path with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "invalid mux config accepted"
  in
  rejects (fun c -> { c with Mux.backlog = 0 });
  rejects (fun c -> { c with Mux.wave_max = 0 });
  rejects (fun c -> { c with Mux.wave_ms = -1.0 });
  Alcotest.(check bool) "nothing bound" false (Sys.file_exists path)

let suite =
  [
    ( "serve",
      [
        Alcotest.test_case "json round-trips" `Quick test_json_roundtrip;
        Alcotest.test_case "json rejects malformed input" `Quick test_json_rejects;
        Alcotest.test_case "cache keys are injective" `Quick test_cache_key;
        Alcotest.test_case "mode fingerprints are distinct" `Quick test_fingerprint;
        Alcotest.test_case "responses identical at jobs 1 and 2" `Slow
          test_determinism_across_jobs;
        Alcotest.test_case "load shedding answers overloaded" `Quick
          test_load_shedding;
        Alcotest.test_case "malformed input never kills the session" `Quick
          test_malformed_never_kills;
        Alcotest.test_case "timeout budget" `Quick test_timeout_budget;
        QCheck_alcotest.to_alcotest test_canonical_hash_property;
        Alcotest.test_case "disk tier: corruption detected, recomputed" `Quick
          test_disk_tier_and_corruption;
        Alcotest.test_case "memory LRU respects its bound" `Quick test_lru_eviction;
        Alcotest.test_case "cost-based eviction honours the budget" `Quick
          test_cost_eviction;
        Alcotest.test_case "shard stats partition the totals" `Quick
          test_shard_distribution;
        Alcotest.test_case "200-request session: >=45% hits via obs" `Slow
          test_acceptance_session;
        Alcotest.test_case "per-request capture is deterministic" `Slow
          test_obs_capture_normalised;
        Alcotest.test_case "sim decode builds no variant" `Quick
          test_sim_decode_builds_nothing;
        Alcotest.test_case "mux socket driver" `Quick test_socket_driver;
        Alcotest.test_case "mux: concurrent client streams deterministic" `Slow
          test_mux_concurrent_determinism;
        Alcotest.test_case "mux: slow reader shed, others progress" `Slow
          test_slow_reader_shed;
        Alcotest.test_case "mux: abrupt disconnect kills only its connection"
          `Quick test_abrupt_disconnect;
        Alcotest.test_case "mux: waves split at wave_max" `Quick
          test_wave_splitting;
        Alcotest.test_case "mux: stale socket reclaimed" `Quick
          test_stale_socket_reclaim;
        Alcotest.test_case "mux: live daemon refused with Busy" `Quick
          test_busy_daemon;
        Alcotest.test_case "mux: config validation" `Quick test_mux_validation;
      ] );
  ]
