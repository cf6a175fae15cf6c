(** Synthetic iA32-like instruction streams.

    The paper's proprietary traces are replaced by a length-distribution
    model: what RAPPID's performance depends on is how instruction lengths
    are distributed (common instructions are short) and how many
    instructions land in each 16-byte cache line.  Profiles range from the
    "typical" skewed mix the paper optimizes for to pathological all-long
    mixes used in the sensitivity sweeps. *)

type profile = { name : string; weights : (int * int) list }
(** [(weight, length)] pairs; lengths in bytes, 1..15. *)

val typical : profile
(** Skewed to short lengths (mean ≈ 3 bytes, ≈ 5 instructions/line) —
    the paper's "common instructions". *)

val uniform : profile
(** Uniform over 1..11 bytes. *)

val short : profile
(** Mostly 1–2 bytes: many instructions per line (stresses tag cycle). *)

val long : profile
(** Mostly 7–11 bytes: few instructions per line (stresses decode). *)

val all_profiles : profile list

(** {2 Streaming generation}

    One instruction costs exactly one splitmix draw, so instruction [i]
    of stream [seed] is a pure function of [(seed, i)]: a cursor can be
    positioned mid-stream in O(1) ([Rng.jump]) and produces bit for bit
    the lengths a sequential run from the seed would.  Chunked,
    materialized and sharded consumers therefore all read the same
    virtual array, in constant memory. *)

type cursor

val cursor : ?start:int -> seed:int -> profile -> instructions:int -> cursor
(** A generator positioned at instruction [start] (default 0) of the
    [instructions]-long stream [seed]. *)

val remaining : cursor -> int
(** Instructions left before the end of the stream. *)

val fill : cursor -> int array -> int
(** [fill c buf] writes the next [min (Array.length buf) (remaining c)]
    instruction lengths into [buf.(0 ..)] and returns how many; [0]
    means the cursor is exhausted.  The buffer is caller-owned and
    reused, so a whole run allocates one chunk regardless of stream
    length. *)

val shard_ranges : instructions:int -> shards:int -> (int * int) array
(** Deterministic contiguous [(start, len)] partition of the stream:
    the first [instructions mod shards] shards take one extra
    instruction.  Every boundary depends only on the two arguments,
    never on the job count. *)

type stream = {
  lengths : int array;  (** instruction lengths, in program order *)
  total_bytes : int;
}

val generate : seed:int -> profile -> instructions:int -> stream
(** Materialize the whole stream as an array — a thin wrapper over
    {!cursor}/{!fill}, so the array is bit-identical to what a streamed
    consumer of the same seed sees. *)

val line_of_byte : int -> int
(** Cache line index (16-byte lines) of a byte address. *)

val starts : stream -> int array
(** Byte address of each instruction's first byte. *)

val mean_length : stream -> float
val instructions_per_line : stream -> float
