(* Cubes are (mask, value) machine integers: a set bit in [mask] means the
   variable is specified, with its polarity in [value] (bits outside the
   mask are zero). *)

let support_size f g =
  match List.rev (List.sort_uniq Int.compare (Bdd.support f @ Bdd.support g)) with
  | [] -> 0
  | v :: _ -> v + 1

let minterms n f =
  let acc = ref [] in
  for m = (1 lsl n) - 1 downto 0 do
    if Bdd.eval f (fun v -> (m lsr v) land 1 = 1) then acc := m :: !acc
  done;
  !acc

(* Quine-McCluskey prime generation by iterated merging. *)
let primes_of_minterms n ms =
  let full_mask = (1 lsl n) - 1 in
  let module S = Set.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let rec iterate current primes =
    if S.is_empty current then primes
    else begin
      let items = S.elements current in
      let merged = Hashtbl.create 64 in
      let next = ref S.empty in
      List.iteri
        (fun i (m1, v1) ->
          List.iteri
            (fun j (m2, v2) ->
              if j > i && m1 = m2 then begin
                let diff = v1 lxor v2 in
                if diff <> 0 && diff land (diff - 1) = 0 then begin
                  Hashtbl.replace merged (m1, v1) ();
                  Hashtbl.replace merged (m2, v2) ();
                  next := S.add (m1 land lnot diff, v1 land lnot diff) !next
                end
              end)
            items)
        items;
      let unmerged =
        List.filter (fun c -> not (Hashtbl.mem merged c)) items
      in
      iterate !next (unmerged @ primes)
    end
  in
  iterate (S.of_list (List.map (fun m -> (full_mask, m)) ms)) []

let covers (mask, value) m = m land mask = value

let cube_of n (mask, value) =
  Cube.of_literals
    (List.filter_map
       (fun v ->
         if (mask lsr v) land 1 = 1 then Some (v, (value lsr v) land 1 = 1) else None)
       (List.init n Fun.id))

exception Found of (int * int) list

(* Minimum-cardinality prime subset covering [targets]: iterative
   deepening over subset size with a simple work cap. *)
let min_cover_exact primes targets =
  let np = List.length primes in
  let parr = Array.of_list primes in
  let work = ref 0 in
  let rec try_size k chosen start remaining =
    incr work;
    if !work > 3_000_000 then invalid_arg "Exact: Petrick search too large";
    match remaining with
    | [] -> raise (Found chosen)
    | m :: _ when k > 0 ->
      (* Branch on primes covering the first uncovered minterm. *)
      for i = start to np - 1 do
        if covers parr.(i) m then begin
          let remaining' = List.filter (fun m' -> not (covers parr.(i) m')) remaining in
          try_size (k - 1) (parr.(i) :: chosen) 0 remaining'
        end
      done
    | _ -> ()
  in
  let rec deepen k =
    if k > np then invalid_arg "Exact: no cover exists"
    else
      match try_size k [] 0 targets with
      | () -> deepen (k + 1)
      | exception Found c -> c
  in
  if targets = [] then [] else deepen 1

let minimum_cover ?(max_vars = 12) ?(dc_set = Bdd.zero) on_set =
  let n = support_size on_set dc_set in
  if n > max_vars then invalid_arg "Exact.minimum_cover: too many variables";
  if Bdd.is_zero on_set then Cover.of_cubes []
  else begin
    let upper = Bdd.bor on_set dc_set in
    let required = Bdd.band on_set (Bdd.bnot dc_set) in
    let primes = primes_of_minterms n (minterms n upper) in
    let targets = minterms n required in
    (* Essential primes first. *)
    let essential =
      List.filter_map
        (fun m ->
          match List.filter (fun p -> covers p m) primes with
          | [ only ] -> Some only
          | _ -> None)
        targets
      |> List.sort_uniq compare
    in
    let remaining_targets =
      List.filter (fun m -> not (List.exists (fun p -> covers p m) essential)) targets
    in
    let candidate_primes =
      List.filter
        (fun p -> List.exists (fun m -> covers p m) remaining_targets)
        primes
    in
    let rest = min_cover_exact candidate_primes remaining_targets in
    Cover.of_cubes (List.map (cube_of n) (essential @ rest))
  end

let primes ?(max_vars = 12) f =
  let n = support_size f Bdd.zero in
  if n > max_vars then invalid_arg "Exact.primes: too many variables";
  List.map (cube_of n) (primes_of_minterms n (minterms n f))
