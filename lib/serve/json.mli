(** A minimal JSON reader/writer for the NDJSON serving protocol.

    The container ships no JSON library, and the protocol only needs a
    deterministic subset: parsing one request object per line and
    printing responses with a {e stable} field order (the insertion
    order of the association list), which is what makes server output
    byte-comparable across runs and job counts.

    Numbers that look integral parse as {!Int}; everything else as
    {!Float}.  Object keys are kept in file order and duplicate keys are
    rejected — a duplicated option in a request is almost certainly a
    client bug, and silently keeping one of the two would make the
    cache key ambiguous. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of { pos : int; msg : string }
(** [pos] is a 0-based byte offset into the input line. *)

val parse : string -> t
(** Parse a complete JSON value; trailing non-whitespace raises. *)

val to_string : t -> string
(** Compact one-line rendering (no newlines — NDJSON-safe even for
    embedded multi-line payloads, which are escaped).  [parse] of the
    output reconstructs the value, except that integral floats print as
    integers. *)

(** {2 Accessors} — convenience lookups for request decoding. *)

val member : string -> t -> t option
(** Field of an object; [None] on absent field or non-object. *)

val to_int : t -> int option
val to_bool : t -> bool option
val to_str : t -> string option
val to_float : t -> float option
(** [to_float] accepts both {!Int} and {!Float}. *)
