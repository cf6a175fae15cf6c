module Stg = Rtcad_stg.Stg

type origin = User | Automatic | Laziness
type t = { first : int; second : int; origin : origin }

let before ?(origin = User) first second =
  if first = second then invalid_arg "Assumption.before: same transition";
  { first; second; origin }

let of_edges stg ?(origin = User) (sig1, dir1) (sig2, dir2) =
  let s1 = Stg.signal_index stg sig1 and s2 = Stg.signal_index stg sig2 in
  let t1s = Stg.transitions_of stg s1 dir1 and t2s = Stg.transitions_of stg s2 dir2 in
  if t1s = [] || t2s = [] then raise Not_found;
  List.concat_map (fun t1 -> List.map (fun t2 -> before ~origin t1 t2) t2s) t1s

let equal a b = a.first = b.first && a.second = b.second
let compare a b = Stdlib.compare (a.first, a.second) (b.first, b.second)

let pp_origin ppf = function
  | User -> Format.fprintf ppf "user"
  | Automatic -> Format.fprintf ppf "auto"
  | Laziness -> Format.fprintf ppf "lazy"

let pp stg ppf a =
  Format.fprintf ppf "%a before %a (%a)" (Stg.pp_transition stg) a.first
    (Stg.pp_transition stg) a.second pp_origin a.origin
