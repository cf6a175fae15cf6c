module Bitset = Rtcad_util.Bitset

type t = bool list

let create n = List.init n (fun _ -> false)

let capacity = List.length

let mem s i = List.nth s i

let set s i v = List.mapi (fun j x -> if j = i then v else x) s
let add s i = set s i true
let remove s i = set s i false

let union a b = List.map2 ( || ) a b
let inter a b = List.map2 ( && ) a b
let diff a b = List.map2 (fun x y -> x && not y) a b

let is_empty s = List.for_all not s
let cardinal s = List.length (List.filter Fun.id s)
let subset a b = List.for_all2 (fun x y -> (not x) || y) a b
let disjoint a b = List.for_all2 (fun x y -> not (x && y)) a b
let equal a b = a = b

let elements s =
  List.filteri (fun i _ -> mem s i) (List.init (capacity s) Fun.id)

let agrees model fast =
  capacity model = Bitset.capacity fast
  && List.for_all (fun i -> mem model i = Bitset.mem fast i)
       (List.init (capacity model) Fun.id)
  && cardinal model = Bitset.cardinal fast
  && is_empty model = Bitset.is_empty fast
  && elements model = Bitset.elements fast
