type t = Cube.t list

let of_cubes cubes = cubes
let cubes c = c
let bottom = []
let to_bdd c = List.fold_left (fun acc cube -> Bdd.bor acc (Cube.to_bdd cube)) Bdd.zero c
let eval c env = List.exists (fun cube -> Cube.eval cube env) c
let num_cubes = List.length
let num_literals c = List.fold_left (fun acc cube -> acc + Cube.size cube) 0 c

(* Minato-Morreale ISOP.  Arguments are the interval bounds:
   [l] must be covered, anything outside [u] must not.  Invariant: l <= u. *)
let rec isop l u =
  if Bdd.is_zero l then ([], Bdd.zero)
  else if Bdd.is_one u then ([ Cube.top ], Bdd.one)
  else begin
    let v =
      let tl = if Bdd.is_zero l || Bdd.is_one l then max_int else Bdd.top_var l in
      let tu = if Bdd.is_zero u || Bdd.is_one u then max_int else Bdd.top_var u in
      min tl tu
    in
    let l0 = Bdd.cofactor l v false and l1 = Bdd.cofactor l v true in
    let u0 = Bdd.cofactor u v false and u1 = Bdd.cofactor u v true in
    (* Minterms that can only be covered with literal v' (resp. v). *)
    let c0, f0 = isop (Bdd.band l0 (Bdd.bnot u1)) u0 in
    let c1, f1 = isop (Bdd.band l1 (Bdd.bnot u0)) u1 in
    let l0' = Bdd.band l0 (Bdd.bnot f0) in
    let l1' = Bdd.band l1 (Bdd.bnot f1) in
    let cd, fd = isop (Bdd.bor l0' l1') (Bdd.band u0 u1) in
    let lit_cubes pol cs =
      List.filter_map (fun cube -> Cube.add cube v pol) cs
    in
    let cover = lit_cubes false c0 @ lit_cubes true c1 @ cd in
    let f =
      Bdd.bor
        (Bdd.bor (Bdd.band (Bdd.nvar v) f0) (Bdd.band (Bdd.var v) f1))
        fd
    in
    (cover, f)
  end

let irredundant_sop ~on_set ~dc_set =
  let l = Bdd.band on_set (Bdd.bnot dc_set) in
  let u = Bdd.bor on_set dc_set in
  let cover, f = isop l u in
  (* Sanity: l <= f <= u. *)
  assert (Bdd.subset l f);
  assert (Bdd.subset f u);
  cover

let single_cube_implementable ~on_set ~dc_set =
  let l = Bdd.band on_set (Bdd.bnot dc_set) in
  if Bdd.is_zero l then Some Cube.top
  else begin
    let u = Bdd.bor on_set dc_set in
    (* The smallest cube containing l: for each support var of l, include the
       literal if l implies it.  Then check the cube fits under u. *)
    let vars = Bdd.support l in
    let lits =
      List.filter_map
        (fun v ->
          if Bdd.subset l (Bdd.var v) then Some (v, true)
          else if Bdd.subset l (Bdd.nvar v) then Some (v, false)
          else None)
        vars
    in
    let cube = Cube.of_literals lits in
    if Bdd.subset (Cube.to_bdd cube) u then Some cube else None
  end

let is_monotonic_cover cover ~entered =
  let hits cube =
    let cb = Cube.to_bdd cube in
    List.fold_left
      (fun acc region -> if Bdd.is_zero (Bdd.band cb region) then acc else acc + 1)
      0 entered
  in
  List.for_all (fun cube -> hits cube <= 1) cover

let cost_literals = num_literals

let pp pp_var ppf c =
  if c = [] then Format.fprintf ppf "0"
  else
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf " + ")
      (Cube.pp pp_var) ppf c
