(* Content-addressed store: the one sharded cost-LRU cache with a
   checksummed disk tier, shared by the staged synthesis flow (stage
   artifacts: encode, reach, covers, emit) and the serve daemon (whole
   responses, stage [response]).

   Memory tier: shards chosen by the key's hash prefix, each a table
   with cost-based LRU eviction (an entry's cost is its payload bytes
   plus the compute milliseconds it saves) holding an even split of the
   budget.  Disk tier:

   - every disk entry records the *stage* that produced it (encode,
     reach, covers, emit, response) so `rtsyn cache ls` can attribute
     bytes;
   - disk writes go through a temp file and an atomic rename, so a
     reader racing a writer, two writers racing each other, or a
     writer killed mid-write leave either the complete old entry or the
     complete new one, never a torn write;
   - the disk tier is first-class: [ls]/[gc]/[disk_stats] operate on a
     directory without constructing a live store, which is what the
     `rtsyn cache` subcommand drives.

   Any header or checksum mismatch (flipped byte, truncation, foreign
   file) counts as corrupt, removes the entry and reports a miss — the
   caller recomputes and overwrites.  Each store counts into the Obs
   namespace fixed at [create] ([flow.cache] for the flow, [serve.cache]
   for the daemon's responses), so the two tiers stay apart in a
   trace.

   Domains share a store (the daemon's wave workers synthesize into one
   flow store), so one mutex per store guards the memory tables, the LRU
   clock and the counters.  Disk reads and writes run outside it: the
   temp-file rename already makes them safe to race. *)

module Obs = Rtcad_obs.Obs

let magic = "rtcad-flow-cache/1"
let file_ext = ".art"

type entry = { payload : string; cost_ms : float; mutable tick : int }

let entry_cost e = String.length e.payload + int_of_float (Float.ceil e.cost_ms)

type shard = {
  table : (string, entry) Hashtbl.t;
  mutable s_cost : int;  (** sum of [entry_cost] over the table *)
  mutable s_bytes : int;
  mutable s_ms : float;
  mutable s_evictions : int;
  g_entries : string;  (** gauge names: [<ns>.shard<i>.<field>] *)
  g_bytes : string;
  g_ms : string;
  g_evictions : string;
}

(* Obs names under the store's namespace, built once at [create] rather
   than on every lookup. *)
type names = {
  n_hit : string;
  n_disk_hit : string;
  n_miss : string;
  n_store : string;
  n_evict : string;
  n_corrupt : string;
  n_entries : string;
  n_bytes : string;
  n_ms : string;
}

type t = {
  shards : shard array;
  shard_budget : int;
  dir : string option;
  names : names;
  lock : Mutex.t;
  mutable clock : int;
  mutable hits : int;
  mutable disk_hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable corrupt : int;
}

type shard_stats = {
  sh_entries : int;
  sh_bytes : int;
  sh_ms : float;
  sh_evictions : int;
}

type stats = {
  hits : int;
  disk_hits : int;
  misses : int;
  stores : int;
  evictions : int;
  corrupt : int;
  entries : int;
  retained_bytes : int;
  retained_ms : float;
  shards : shard_stats list;
}

let rec mkdir_p path =
  if path = "" || path = "." || path = "/" || Sys.file_exists path then ()
  else begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    | Unix.Unix_error (e, _, _) ->
      raise (Sys_error (Printf.sprintf "%s: %s" path (Unix.error_message e)))
  end

let default_budget = 64 * 1024 * 1024

let create ?(namespace = "flow.cache") ?(shards = 4) ?(budget = default_budget)
    ?dir () =
  if shards < 1 then invalid_arg "Store.create: shards must be positive";
  if budget < 1 then invalid_arg "Store.create: budget must be positive";
  Option.iter mkdir_p dir;
  let n s = namespace ^ "." ^ s in
  {
    shards =
      Array.init shards (fun i ->
          let g s = n (Printf.sprintf "shard%d.%s" i s) in
          {
            table = Hashtbl.create 16;
            s_cost = 0;
            s_bytes = 0;
            s_ms = 0.0;
            s_evictions = 0;
            g_entries = g "entries";
            g_bytes = g "bytes";
            g_ms = g "ms";
            g_evictions = g "evictions";
          });
    shard_budget = max 1 (budget / shards);
    dir;
    names =
      {
        n_hit = n "hit";
        n_disk_hit = n "disk_hit";
        n_miss = n "miss";
        n_store = n "store";
        n_evict = n "evict";
        n_corrupt = n "corrupt";
        n_entries = n "entries";
        n_bytes = n "retained_bytes";
        n_ms = n "retained_ms";
      };
    lock = Mutex.create ();
    clock = 0;
    hits = 0;
    disk_hits = 0;
    misses = 0;
    stores = 0;
    corrupt = 0;
  }

(* Keys are md5 hex digests ({!key}); the first two hex characters are a
   uniform hash prefix.  Arbitrary keys (unit tests) fall back to a
   deterministic structural hash. *)
let shard_index (t : t) k =
  let hex c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | _ -> None
  in
  let n = Array.length t.shards in
  if n = 1 then 0
  else
    match if String.length k >= 2 then (hex k.[0], hex k.[1]) else (None, None) with
    | Some a, Some b -> ((a * 16) + b) mod n
    | _ -> Hashtbl.hash k mod n

let shard_of (t : t) k = t.shards.(shard_index t k)

(* Length-prefixing makes the digest injective over the part list:
   ["ab"; "c"] and ["a"; "bc"] hash differently. *)
let key parts =
  let buf = Buffer.create 256 in
  List.iter
    (fun p ->
      Buffer.add_string buf (string_of_int (String.length p));
      Buffer.add_char buf ':';
      Buffer.add_string buf p)
    parts;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let touch t e =
  t.clock <- t.clock + 1;
  e.tick <- t.clock

(* Gauges are only rebuilt when recording is on; the daemon's stats op
   reads the same numbers synchronously via {!stats}. *)
let publish_gauges (t : t) =
  if Obs.enabled () then begin
    let entries = ref 0 and bytes = ref 0 and ms = ref 0.0 in
    Array.iter
      (fun s ->
        let n = Hashtbl.length s.table in
        entries := !entries + n;
        bytes := !bytes + s.s_bytes;
        ms := !ms +. s.s_ms;
        Obs.set_gauge s.g_entries (float_of_int n);
        Obs.set_gauge s.g_bytes (float_of_int s.s_bytes);
        Obs.set_gauge s.g_ms s.s_ms;
        Obs.set_gauge s.g_evictions (float_of_int s.s_evictions))
      t.shards;
    Obs.set_gauge t.names.n_entries (float_of_int !entries);
    Obs.set_gauge t.names.n_bytes (float_of_int !bytes);
    Obs.set_gauge t.names.n_ms !ms
  end

let remove_entry sh k e =
  Hashtbl.remove sh.table k;
  sh.s_cost <- sh.s_cost - entry_cost e;
  sh.s_bytes <- sh.s_bytes - String.length e.payload;
  sh.s_ms <- sh.s_ms -. e.cost_ms

(* The LRU scan is O(entries); shards keep each table small and the
   determinism of "evict the minimum tick" is worth more here than a
   doubly-linked list. *)
let evict_lru t sh =
  let victim = ref None in
  Hashtbl.iter
    (fun k e ->
      match !victim with
      | Some (_, v) when v.tick <= e.tick -> ()
      | _ -> victim := Some (k, e))
    sh.table;
  match !victim with
  | Some (k, e) ->
    remove_entry sh k e;
    sh.s_evictions <- sh.s_evictions + 1;
    Obs.incr t.names.n_evict;
    true
  | None -> false

let insert_mem ?(cost_ms = 0.0) t k payload =
  let sh = shard_of t k in
  match Hashtbl.find_opt sh.table k with
  | Some e -> touch t e
  | None ->
    let e = { payload; cost_ms; tick = 0 } in
    touch t e;
    Hashtbl.replace sh.table k e;
    sh.s_cost <- sh.s_cost + entry_cost e;
    sh.s_bytes <- sh.s_bytes + String.length payload;
    sh.s_ms <- sh.s_ms +. cost_ms;
    (* Shave down to budget, never evicting the entry just inserted, so
       a single oversized entry still caches (and is the next victim). *)
    while
      sh.s_cost > t.shard_budget && Hashtbl.length sh.table > 1 && evict_lru t sh
    do
      ()
    done

(* --- disk tier --------------------------------------------------------- *)

let disk_path dir k = Filename.concat dir (k ^ file_ext)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A disk entry is [magic ^ " " ^ stage ^ " " ^ md5(payload) ^ "\n" ^
   payload].  The stage name carries no trust — only the checksum does —
   it exists so [ls] can attribute the entry without decoding the
   payload. *)
let encode_entry ~stage payload =
  if String.contains stage ' ' || String.contains stage '\n' then
    invalid_arg "Store: stage names must not contain spaces";
  Printf.sprintf "%s %s %s\n%s" magic stage
    (Digest.to_hex (Digest.string payload))
    payload

let decode_entry data =
  match String.index_opt data '\n' with
  | None -> None
  | Some nl -> (
    let header = String.sub data 0 nl in
    let payload = String.sub data (nl + 1) (String.length data - nl - 1) in
    match String.split_on_char ' ' header with
    | [ m; stage; sum ] when m = magic ->
      if String.equal sum (Digest.to_hex (Digest.string payload)) then
        Some (stage, payload)
      else None
    | _ -> None)

let disk_find t k =
  match t.dir with
  | None -> None
  | Some dir -> (
    let path = disk_path dir k in
    match read_file path with
    | exception Sys_error _ -> None
    | data -> (
      match decode_entry data with
      | Some (_stage, payload) -> Some payload
      | None ->
        Mutex.protect t.lock (fun () -> t.corrupt <- t.corrupt + 1);
        Obs.incr t.names.n_corrupt;
        (try Sys.remove path with Sys_error _ -> ());
        None))

(* Unique-then-rename keeps concurrent writers safe: each writer builds
   its own temp file (pid + a per-store counter disambiguate) and the
   rename installs it atomically, so the entry file is always either
   absent or a complete checksummed entry.  Last writer wins; both wrote
   the same content-addressed payload anyway. *)
let tmp_counter = Atomic.make 0

let disk_store t ~stage k payload =
  match t.dir with
  | None -> ()
  | Some dir ->
    let path = disk_path dir k in
    let tmp =
      Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
        (Atomic.fetch_and_add tmp_counter 1)
    in
    let data = encode_entry ~stage payload in
    (* Best-effort: a full disk loses persistence for this entry only. *)
    (match Obs.write_file ~path:tmp data with
    | Ok () -> ( try Sys.rename tmp path with Sys_error _ -> ())
    | Error _ -> ( try Sys.remove tmp with Sys_error _ -> ()))

let find t k =
  let in_memory =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt (shard_of t k).table k with
        | Some e ->
          touch t e;
          t.hits <- t.hits + 1;
          Obs.incr t.names.n_hit;
          Some e.payload
        | None -> None)
  in
  match in_memory with
  | Some _ -> in_memory
  | None -> (
    match disk_find t k with
    | Some payload ->
      Mutex.protect t.lock (fun () ->
          insert_mem t k payload;
          t.hits <- t.hits + 1;
          t.disk_hits <- t.disk_hits + 1;
          Obs.incr t.names.n_hit;
          Obs.incr t.names.n_disk_hit;
          publish_gauges t);
      Some payload
    | None ->
      Mutex.protect t.lock (fun () ->
          t.misses <- t.misses + 1;
          Obs.incr t.names.n_miss);
      None)

let store ?cost_ms ~stage t k payload =
  Mutex.protect t.lock (fun () ->
      insert_mem ?cost_ms t k payload;
      t.stores <- t.stores + 1;
      Obs.incr t.names.n_store;
      publish_gauges t);
  disk_store t ~stage k payload

let stats (t : t) =
  Mutex.protect t.lock @@ fun () ->
  let shards =
    Array.to_list
      (Array.map
         (fun s ->
           {
             sh_entries = Hashtbl.length s.table;
             sh_bytes = s.s_bytes;
             sh_ms = s.s_ms;
             sh_evictions = s.s_evictions;
           })
         t.shards)
  in
  {
    hits = t.hits;
    disk_hits = t.disk_hits;
    misses = t.misses;
    stores = t.stores;
    evictions = List.fold_left (fun a s -> a + s.sh_evictions) 0 shards;
    corrupt = t.corrupt;
    entries = List.fold_left (fun a s -> a + s.sh_entries) 0 shards;
    retained_bytes = List.fold_left (fun a s -> a + s.sh_bytes) 0 shards;
    retained_ms = List.fold_left (fun a s -> a +. s.sh_ms) 0.0 shards;
    shards;
  }

(* --- directory operations (the `rtsyn cache` subcommand) --------------- *)

type disk_entry = {
  de_key : string;
  de_stage : string;
  de_bytes : int;  (** whole file, header included *)
  de_mtime : float;
}

type disk_stats = {
  d_entries : int;
  d_bytes : int;
  d_corrupt : int;  (** undecodable entries found (and removed) by the scan *)
  d_stages : (string * int) list;  (** per-stage entry counts, sorted *)
}

(* Scan a store directory: decode every [.art] entry, removing the ones
   that fail their checksum (the same discard-and-recompute contract the
   live store applies on [find]).  Stray temp files older than an hour
   are leftovers of a crashed writer and are swept too. *)
let scan dir =
  let names =
    match Sys.readdir dir with
    | exception Sys_error _ -> [||]
    | ns -> ns
  in
  Array.sort compare names;
  let entries = ref [] and corrupt = ref 0 in
  let now = Unix.gettimeofday () in
  Array.iter
    (fun name ->
      let path = Filename.concat dir name in
      if Filename.check_suffix name file_ext then begin
        match read_file path with
        | exception Sys_error _ -> ()
        | data -> (
          match decode_entry data with
          | Some (stage, _) ->
            let st = try Some (Unix.stat path) with Unix.Unix_error _ -> None in
            entries :=
              {
                de_key = Filename.chop_suffix name file_ext;
                de_stage = stage;
                de_bytes = String.length data;
                de_mtime =
                  (match st with Some s -> s.Unix.st_mtime | None -> now);
              }
              :: !entries
          | None ->
            incr corrupt;
            (try Sys.remove path with Sys_error _ -> ()))
      end
      else if
        (* "<key>.art.tmp.<pid>.<n>": a temp file a crashed writer never
           renamed.  Fresh ones may belong to a live writer; stale ones
           are garbage. *)
        (let marker = file_ext ^ ".tmp." in
         let rec has_sub i =
           i + String.length marker <= String.length name
           && (String.sub name i (String.length marker) = marker
              || has_sub (i + 1))
         in
         has_sub 0)
        &&
        match Unix.stat path with
        | exception Unix.Unix_error _ -> false
        | st -> now -. st.Unix.st_mtime > 3600.0
      then try Sys.remove path with Sys_error _ -> ())
    names;
  (List.rev !entries, !corrupt)

let ls ~dir =
  let entries, _ = scan dir in
  List.sort
    (fun a b ->
      match compare a.de_stage b.de_stage with
      | 0 -> compare a.de_key b.de_key
      | c -> c)
    entries

let disk_stats ~dir =
  let entries, corrupt = scan dir in
  let stages = Hashtbl.create 8 in
  List.iter
    (fun e ->
      Hashtbl.replace stages e.de_stage
        (1 + Option.value ~default:0 (Hashtbl.find_opt stages e.de_stage)))
    entries;
  {
    d_entries = List.length entries;
    d_bytes = List.fold_left (fun a e -> a + e.de_bytes) 0 entries;
    d_corrupt = corrupt;
    d_stages =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) stages []);
  }

(* Oldest-first eviction down to the byte budget.  Ties on mtime break
   by key so the sweep is deterministic on coarse-granularity
   filesystems. *)
let gc ~dir ~budget =
  if budget < 0 then invalid_arg "Store.gc: budget must be non-negative";
  let entries, _ = scan dir in
  let total = List.fold_left (fun a e -> a + e.de_bytes) 0 entries in
  let ordered =
    List.sort
      (fun a b ->
        match compare a.de_mtime b.de_mtime with
        | 0 -> compare a.de_key b.de_key
        | c -> c)
      entries
  in
  let removed = ref 0 and remaining = ref total in
  List.iter
    (fun e ->
      if !remaining > budget then begin
        match Sys.remove (disk_path dir e.de_key) with
        | () ->
          incr removed;
          remaining := !remaining - e.de_bytes
        | exception Sys_error _ -> ()
      end)
    ordered;
  (!removed, !remaining)
