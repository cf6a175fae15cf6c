module Bdd = Rtcad_logic.Bdd
module Cover = Rtcad_logic.Cover
module Sg = Rtcad_sg.Sg
module Stg = Rtcad_stg.Stg

type style = Complex_gate | Generalized_c

type impl =
  | Complex of Cover.t
  | Gc of { set : Cover.t; reset : Cover.t }

let synthesize (spec : Nextstate.spec) = function
  | Complex_gate ->
    Complex (Cover.irredundant_sop ~on_set:spec.on_set ~dc_set:spec.dc_set)
  | Generalized_c ->
    (* S in [rise_region, on+dc]; R in [fall_region, not-high+dc minus S]. *)
    let set_cover =
      Cover.irredundant_sop ~on_set:spec.rise_region
        ~dc_set:(Bdd.band (Bdd.bor spec.on_set spec.dc_set) (Bdd.bnot spec.rise_region))
    in
    let s_bdd = Cover.to_bdd set_cover in
    let reset_upper =
      Bdd.band (Bdd.bor (Bdd.bnot spec.high_region) spec.dc_set) (Bdd.bnot s_bdd)
    in
    let reset_cover =
      Cover.irredundant_sop ~on_set:spec.fall_region
        ~dc_set:(Bdd.band reset_upper (Bdd.bnot spec.fall_region))
    in
    Gc { set = set_cover; reset = reset_cover }

let next_value impl ~current env =
  match impl with
  | Complex c -> Cover.eval c env
  | Gc { set; reset } -> Cover.eval set env || (current && not (Cover.eval reset env))

let literal_cost = function
  | Complex c -> Cover.cost_literals c
  | Gc { set; reset } -> Cover.cost_literals set + Cover.cost_literals reset + 2

let respects_spec (spec : Nextstate.spec) impl =
  (* Compare as BDDs: implemented next-state function vs on/off sets. *)
  let u = spec.signal in
  let f =
    match impl with
    | Complex c -> Cover.to_bdd c
    | Gc { set; reset } ->
      Bdd.bor (Cover.to_bdd set) (Bdd.band (Bdd.var u) (Bdd.bnot (Cover.to_bdd reset)))
  in
  Bdd.subset spec.on_set f && Bdd.is_zero (Bdd.band spec.off_set f)

let monotonic_with ~rises ~falls impl =
  match impl with
  | Complex c ->
    (* Cubes of the cover may each serve a single rise instance. *)
    Cover.is_monotonic_cover c ~entered:rises
  | Gc { set; reset } ->
    Cover.is_monotonic_cover set ~entered:rises
    && Cover.is_monotonic_cover reset ~entered:falls

let monotonic (type a v) (engine : (a, v) Rtcad_sg.Engine.impl) (vw : v)
    (spec : Nextstate.spec) impl =
  let module E = (val engine) in
  monotonic_with
    ~rises:(E.excitation_regions vw spec.signal Stg.Rise)
    ~falls:(E.excitation_regions vw spec.signal Stg.Fall)
    impl

let pp stg ppf impl =
  let pp_var ppf v = Format.fprintf ppf "%s" (Stg.signal_name stg v) in
  match impl with
  | Complex c -> Cover.pp pp_var ppf c
  | Gc { set; reset } ->
    Format.fprintf ppf "set: %a  reset: %a" (Cover.pp pp_var) set (Cover.pp pp_var) reset
