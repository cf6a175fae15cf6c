(** Gate library: primitive functions, implementation styles, and cost
    models (transistors, delay, switching energy).

    The models are calibrated against a generic quarter-micron CMOS
    standard-cell flavour so that the relative numbers of the paper's
    Table 2 are reproducible: static complementary gates cost two
    transistors per literal; footed domino gates cost one transistor per
    literal plus precharge, foot and keeper devices and are faster than
    static gates of the same fan-in; C-elements and set-dominant
    generalized-C elements carry their keeper cost. *)

type func =
  | And
  | Or
  | Nand
  | Nor
  | Not
  | Buf
  | Xor
  | Celem  (** state-holding: out 1 when all inputs 1, 0 when all 0, else hold *)
  | Set_reset
      (** inputs [set; reset]: out 1 when [set], 0 when [reset] and not
          [set] (set-dominant), else hold *)
  | Sop of int list
      (** atomic sum-of-products complex gate: the list gives the cube
          sizes; inputs are the cubes' literals in order.  Atomicity is
          what makes complex-gate implementations speed-independent. *)
  | Sop_sr of { set_cubes : int list; reset_cubes : int list }
      (** atomic generalized-C element: a set SOP and a reset SOP feeding
          a keeper, set-dominant.  Inputs: set literals then reset
          literals, cube by cube. *)

type style =
  | Static
  | Domino of { footed : bool }
      (** precharged pulldown evaluation; unfooted variants save the foot
          transistor but need a timing assumption on their inputs
          (Figure 6) *)

type t = { func : func; style : style; fanin : int }

val make : ?style:style -> func -> fanin:int -> t
(** Raises [Invalid_argument] for nonsensical combinations (e.g. [Not]
    with fan-in 2, [Set_reset] with fan-in other than 2). *)

val eval : t -> current:bool -> bool list -> bool
(** Combinational/next value given input values ([current] matters only
    for the state-holding functions). *)

val eval_arr : t -> current:bool -> bool array -> n:int -> bool
(** Same as {!eval}, reading the first [n] elements of a caller-owned
    scratch array — no allocation, for the simulator's inner loop.
    [n] must equal the gate's fan-in. *)

val transistors : t -> int
val delay_ps : t -> float
(** Nominal propagation delay. *)

val energy_fj : t -> float
(** Switching energy per output transition, femtojoules. *)

val pp : Format.formatter -> t -> unit
