module Bdd = Rtcad_logic.Bdd
module Stg = Rtcad_stg.Stg
module Symbolic = Rtcad_sg.Symbolic

type spec = {
  signal : int;
  on_set : Bdd.t;
  off_set : Bdd.t;
  dc_set : Bdd.t;
  rise_region : Bdd.t;
  fall_region : Bdd.t;
  high_region : Bdd.t;
  low_region : Bdd.t;
}

exception Conflict of int * string

(* The engine extracts the code regions; a code in both the on- and the
   off-set is the CSC conflict. *)
let of_view (type a v) (impl : (a, v) Rtcad_sg.Engine.impl) (vw : v) u =
  let module E = (val impl) in
  let r = E.code_regions vw u in
  if not (Bdd.is_zero (Bdd.band r.Symbolic.on r.Symbolic.off)) then
    raise
      (Conflict
         ( u,
           Format.asprintf "signal %s: a code requires both next values"
             (Stg.signal_name (E.view_stg vw) u) ));
  {
    signal = u;
    on_set = r.Symbolic.on;
    off_set = r.Symbolic.off;
    dc_set = Bdd.bnot (Bdd.bor r.Symbolic.on r.Symbolic.off);
    rise_region = r.Symbolic.rise;
    fall_region = r.Symbolic.fall;
    high_region = r.Symbolic.high;
    low_region = r.Symbolic.low;
  }

let all (type a v) (impl : (a, v) Rtcad_sg.Engine.impl) (vw : v) =
  let module E = (val impl) in
  List.map (of_view impl vw) (Stg.non_input_signals (E.view_stg vw))
