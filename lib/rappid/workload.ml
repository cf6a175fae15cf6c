module Rng = Rtcad_util.Rng

type profile = { name : string; weights : (int * int) list }

let typical =
  {
    name = "typical";
    weights =
      [ (18, 1); (22, 2); (24, 3); (14, 4); (9, 5); (6, 6); (4, 7); (2, 8); (1, 11) ];
  }

let uniform =
  { name = "uniform"; weights = List.init 11 (fun i -> (1, i + 1)) }

let short = { name = "short"; weights = [ (60, 1); (30, 2); (10, 3) ] }

let long =
  { name = "long"; weights = [ (10, 6); (30, 7); (30, 8); (20, 9); (10, 11) ] }

let all_profiles = [ typical; uniform; short; long ]

(* --- streaming generation ---

   One instruction costs exactly one splitmix draw ([Rng.weighted] makes
   a single [Rng.int] call), so instruction [i] of stream [seed] is a
   pure function of [(seed, i)]: a cursor positioned with [Rng.jump]
   produces bit for bit the lengths a sequential run from the seed
   would.  That is the whole determinism story — chunked, materialized
   and sharded runs all read the same virtual array.  (The qcheck
   property suite pins the one-draw-per-instruction invariant.) *)

type cursor = {
  c_profile : profile;
  c_rng : Rng.t;
  c_limit : int; (* stream length: indices < c_limit exist *)
  mutable c_next : int; (* absolute index of the next instruction *)
}

let cursor ?(start = 0) ~seed profile ~instructions =
  if instructions < 0 then invalid_arg "Workload.cursor: negative instruction count";
  if start < 0 || start > instructions then invalid_arg "Workload.cursor: start out of range";
  let rng = Rng.create seed in
  Rng.jump rng start;
  { c_profile = profile; c_rng = rng; c_limit = instructions; c_next = start }

let remaining c = c.c_limit - c.c_next

let fill c buf =
  let n = min (Array.length buf) (remaining c) in
  for i = 0 to n - 1 do
    buf.(i) <- Rng.weighted c.c_rng c.c_profile.weights
  done;
  c.c_next <- c.c_next + n;
  n

(* Deterministic contiguous partition: the first [instructions mod
   shards] shards take one extra instruction, so any two calls (and any
   job count) agree on every boundary. *)
let shard_ranges ~instructions ~shards =
  if shards < 1 then invalid_arg "Workload.shard_ranges: shard count must be positive";
  if instructions < 0 then invalid_arg "Workload.shard_ranges: negative instruction count";
  let base = instructions / shards and rem = instructions mod shards in
  Array.init shards (fun s ->
      let len = base + if s < rem then 1 else 0 in
      let start = (s * base) + min s rem in
      (start, len))

type stream = { lengths : int array; total_bytes : int }

(* The array API is a thin wrapper over the cursor: one fill of the
   whole index range, so a materialized stream is by construction the
   streamed one. *)
let generate ~seed profile ~instructions =
  let c = cursor ~seed profile ~instructions in
  let lengths = Array.make instructions 0 in
  let filled = fill c lengths in
  assert (filled = instructions);
  { lengths; total_bytes = Array.fold_left ( + ) 0 lengths }

let line_of_byte addr = addr / 16

let starts stream =
  let n = Array.length stream.lengths in
  let result = Array.make n 0 in
  let addr = ref 0 in
  for i = 0 to n - 1 do
    result.(i) <- !addr;
    addr := !addr + stream.lengths.(i)
  done;
  result

let mean_length stream =
  if Array.length stream.lengths = 0 then 0.0
  else float_of_int stream.total_bytes /. float_of_int (Array.length stream.lengths)

let instructions_per_line stream =
  if stream.total_bytes = 0 then 0.0
  else
    float_of_int (Array.length stream.lengths)
    /. float_of_int ((stream.total_bytes + 15) / 16)
