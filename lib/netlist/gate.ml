type func =
  | And
  | Or
  | Nand
  | Nor
  | Not
  | Buf
  | Xor
  | Celem
  | Set_reset
  | Sop of int list
  | Sop_sr of { set_cubes : int list; reset_cubes : int list }

type style = Static | Domino of { footed : bool }
type t = { func : func; style : style; fanin : int }

let sum = List.fold_left ( + ) 0

let make ?(style = Static) func ~fanin =
  (match func with
  | Not | Buf -> if fanin <> 1 then invalid_arg "Gate.make: unary gate fan-in"
  | Set_reset -> if fanin <> 2 then invalid_arg "Gate.make: set/reset takes 2 inputs"
  | Xor -> if fanin <> 2 then invalid_arg "Gate.make: xor fan-in"
  | And | Or | Nand | Nor | Celem ->
    if fanin < 2 then invalid_arg "Gate.make: fan-in must be >= 2"
  | Sop cubes ->
    if cubes = [] || List.exists (fun c -> c < 1) cubes || sum cubes <> fanin then
      invalid_arg "Gate.make: bad SOP shape"
  | Sop_sr { set_cubes; reset_cubes } ->
    if
      set_cubes = [] || reset_cubes = []
      || List.exists (fun c -> c < 1) (set_cubes @ reset_cubes)
      || sum set_cubes + sum reset_cubes <> fanin
    then invalid_arg "Gate.make: bad gC shape");
  (match (func, style) with
  | (Celem | Set_reset | Xor), Domino _ ->
    invalid_arg "Gate.make: state-holding/xor gates are static"
  | ( (And | Or | Nand | Nor | Not | Buf | Celem | Set_reset | Xor | Sop _ | Sop_sr _),
      (Static | Domino _) ) -> ());
  { func; style; fanin }

let split_at k l =
  let rec go k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | x :: rest -> go (k - 1) (x :: acc) rest
    | [] -> invalid_arg "Gate.eval: arity"
  in
  go k [] l

(* Evaluate an SOP over a flat literal list given cube sizes. *)
let rec eval_sop cubes inputs =
  match cubes with
  | [] -> false
  | c :: rest ->
    let cube_ins, remainder = split_at c inputs in
    List.for_all Fun.id cube_ins || eval_sop rest remainder

let eval g ~current inputs =
  if List.length inputs <> g.fanin then invalid_arg "Gate.eval: arity";
  match g.func with
  | And -> List.for_all Fun.id inputs
  | Or -> List.exists Fun.id inputs
  | Nand -> not (List.for_all Fun.id inputs)
  | Nor -> not (List.exists Fun.id inputs)
  | Not -> not (List.nth inputs 0)
  | Buf -> List.nth inputs 0
  | Xor -> List.nth inputs 0 <> List.nth inputs 1
  | Celem ->
    if List.for_all Fun.id inputs then true
    else if List.for_all not inputs then false
    else current
  | Set_reset -> (
    match inputs with
    | [ set; reset ] -> set || (current && not reset)
    | _ -> assert false)
  | Sop cubes -> eval_sop cubes inputs
  | Sop_sr { set_cubes; reset_cubes } ->
    let set_ins, reset_ins = split_at (sum set_cubes) inputs in
    let s = eval_sop set_cubes set_ins and r = eval_sop reset_cubes reset_ins in
    s || (current && not r)

(* Array variant of {!eval} for the simulator's hot loop: input values
   live in a caller-owned scratch prefix [a.(0 .. n-1)], so evaluation
   allocates nothing.  Helpers are top-level so the recursion compiles to
   direct calls instead of per-call closures. *)
let rec arr_all a i j = i >= j || (Array.unsafe_get a i && arr_all a (i + 1) j)
let rec arr_any a i j = i < j && (Array.unsafe_get a i || arr_any a (i + 1) j)

let rec eval_sop_arr cubes a off =
  match cubes with
  | [] -> false
  | c :: rest -> arr_all a off (off + c) || eval_sop_arr rest a (off + c)

let eval_arr g ~current a ~n =
  if n <> g.fanin then invalid_arg "Gate.eval: arity";
  match g.func with
  | And -> arr_all a 0 n
  | Or -> arr_any a 0 n
  | Nand -> not (arr_all a 0 n)
  | Nor -> not (arr_any a 0 n)
  | Not -> not (Array.unsafe_get a 0)
  | Buf -> Array.unsafe_get a 0
  | Xor -> Array.unsafe_get a 0 <> Array.unsafe_get a 1
  | Celem ->
    if arr_all a 0 n then true else if not (arr_any a 0 n) then false else current
  | Set_reset -> a.(0) || (current && not a.(1))
  | Sop cubes -> eval_sop_arr cubes a 0
  | Sop_sr { set_cubes; reset_cubes } ->
    let s = eval_sop_arr set_cubes a 0
    and r = eval_sop_arr reset_cubes a (sum set_cubes) in
    s || (current && not r)

(* Transistor counts: static complementary = 2 per literal; domino =
   pulldown stack (1/literal) + precharge + keeper pair + output inverter,
   plus the foot transistor when footed; C-element = classic 8-transistor
   (2-input) plus 2 per extra input; set/reset latch = 6; XOR = 8; an
   atomic gC pays both networks plus its keeper. *)
let transistors g =
  match g.func with
  | And | Or | Nand | Nor | Sop _ -> (
    match g.style with
    | Static -> 2 * g.fanin
    | Domino { footed } -> g.fanin + 5 + (if footed then 1 else 0))
  | Not -> 2
  | Buf -> 4
  | Xor -> 8
  | Celem -> 8 + (2 * (g.fanin - 2))
  | Set_reset -> 6
  | Sop_sr _ -> (
    match g.style with
    | Static -> (2 * g.fanin) + 4
    | Domino { footed } -> g.fanin + 7 + (if footed then 1 else 0))

(* Delays (ps, nominal 0.25u-class): domino evaluation is fast; static
   gates slow down with fan-in; state-holding elements are the slowest. *)
let delay_ps g =
  match g.style with
  | Domino { footed } ->
    60.0 +. (15.0 *. float_of_int g.fanin) +. (if footed then 10.0 else 0.0)
  | Static -> (
    match g.func with
    | Not -> 45.0
    | Buf -> 70.0
    | And | Or | Nand | Nor -> 60.0 +. (30.0 *. float_of_int g.fanin)
    | Sop _ -> 80.0 +. (30.0 *. float_of_int g.fanin)
    | Xor -> 140.0
    | Celem -> 120.0 +. (40.0 *. float_of_int g.fanin)
    | Set_reset -> 150.0
    | Sop_sr _ -> 110.0 +. (35.0 *. float_of_int g.fanin))

(* Switching energy per output transition (fJ), proportional to the
   switched capacitance which we approximate by transistor count plus a
   fixed wire/load term.  Domino gates swing smaller internal nodes and
   cost proportionally less per device. *)
let energy_fj g =
  match g.style with
  | Static -> 900.0 +. (480.0 *. float_of_int (transistors g))
  | Domino _ -> 500.0 +. (260.0 *. float_of_int (transistors g))

let pp ppf g =
  let f =
    match g.func with
    | And -> "and"
    | Or -> "or"
    | Nand -> "nand"
    | Nor -> "nor"
    | Not -> "not"
    | Buf -> "buf"
    | Xor -> "xor"
    | Celem -> "c"
    | Set_reset -> "sr"
    | Sop cubes ->
      Printf.sprintf "sop[%s]" (String.concat "," (List.map string_of_int cubes))
    | Sop_sr { set_cubes; reset_cubes } ->
      Printf.sprintf "gc[%s;%s]"
        (String.concat "," (List.map string_of_int set_cubes))
        (String.concat "," (List.map string_of_int reset_cubes))
  in
  let s =
    match g.style with
    | Static -> ""
    | Domino { footed = true } -> "/domino"
    | Domino { footed = false } -> "/domino-unfooted"
  in
  Format.fprintf ppf "%s%d%s" f g.fanin s
