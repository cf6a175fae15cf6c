type dir = Rise | Fall
type kind = Input | Output | Internal
type label = Edge of { signal : int; dir : dir } | Dummy

type t = {
  net : Petri.t;
  labels : label array;
  signal_names : string array;
  kinds : kind array;
  initial_values : bool array;
  by_name : (string, int) Hashtbl.t;
}

let make ~net ~labels ~signal_names ~kinds ~initial_values =
  let ns = Array.length signal_names in
  if Array.length labels <> Petri.num_transitions net then
    invalid_arg "Stg.make: labels size mismatch";
  if Array.length kinds <> ns || Array.length initial_values <> ns then
    invalid_arg "Stg.make: signal arrays mismatch";
  Array.iter
    (function
      | Edge { signal; _ } when signal < 0 || signal >= ns ->
        invalid_arg "Stg.make: bad signal index"
      | Edge _ | Dummy -> ())
    labels;
  let by_name = Hashtbl.create ns in
  Array.iteri (fun i n -> Hashtbl.replace by_name n i) signal_names;
  { net; labels; signal_names; kinds; initial_values; by_name }

let net stg = stg.net
let label stg t = stg.labels.(t)
let num_signals stg = Array.length stg.signal_names
let signal_name stg s = stg.signal_names.(s)

let signal_index stg name =
  match Hashtbl.find_opt stg.by_name name with Some i -> i | None -> raise Not_found

let kind stg s = stg.kinds.(s)
let initial_value stg s = stg.initial_values.(s)
let is_input stg s = stg.kinds.(s) = Input

let signals stg = List.init (num_signals stg) Fun.id

let non_input_signals stg =
  List.filter (fun s -> stg.kinds.(s) <> Input) (signals stg)

let transitions_of stg s d =
  let acc = ref [] in
  for t = Petri.num_transitions stg.net - 1 downto 0 do
    match stg.labels.(t) with
    | Edge { signal; dir } when signal = s && dir = d -> acc := t :: !acc
    | Edge _ | Dummy -> ()
  done;
  !acc

let pp_dir ppf = function
  | Rise -> Format.fprintf ppf "+"
  | Fall -> Format.fprintf ppf "-"

let pp_transition stg ppf t =
  match stg.labels.(t) with
  | Edge { signal; dir } ->
    Format.fprintf ppf "%s%a" stg.signal_names.(signal) pp_dir dir
  | Dummy -> Format.fprintf ppf "%s" (Petri.transition_name stg.net t)

let pp ppf stg =
  Format.fprintf ppf "@[<v>signals:";
  Array.iteri
    (fun i n ->
      let k =
        match stg.kinds.(i) with Input -> "in" | Output -> "out" | Internal -> "int"
      in
      Format.fprintf ppf " %s(%s%s)" n k (if stg.initial_values.(i) then "=1" else ""))
    stg.signal_names;
  Format.fprintf ppf "@,%a@]" Petri.pp stg.net

let opposite = function Rise -> Fall | Fall -> Rise

module Build = struct
  type stg = t

  type pending_trans = { tname : string; tlabel : [ `Edge of string * dir * int | `Dummy ] }

  type t = {
    mutable sigs : (string * kind * bool) list; (* reversed *)
    mutable dummies : string list;
    mutable transes : pending_trans list; (* reversed *)
    trans_index : (string, int) Hashtbl.t;
    mutable places : (string * string option * string option) list;
    (* reversed: name, single producer transition, single consumer (for
       implicit places); explicit places have None/None here and use arcs *)
    place_index : (string, int) Hashtbl.t;
    mutable arcs_tp : (int * int) list; (* transition -> place *)
    mutable arcs_pt : (int * int) list; (* place -> transition *)
    mutable marked : int list;
    mutable n_trans : int;
    mutable n_places : int;
  }

  let create () =
    {
      sigs = [];
      dummies = [];
      transes = [];
      trans_index = Hashtbl.create 16;
      places = [];
      place_index = Hashtbl.create 16;
      arcs_tp = [];
      arcs_pt = [];
      marked = [];
      n_trans = 0;
      n_places = 0;
    }

  let signal b k ?(initial = false) name =
    if List.exists (fun (n, _, _) -> n = name) b.sigs then
      failwith (Printf.sprintf "Stg.Build: duplicate signal %s" name);
    b.sigs <- (name, k, initial) :: b.sigs

  let dummy b name =
    if List.mem name b.dummies then
      failwith (Printf.sprintf "Stg.Build: duplicate dummy %s" name);
    b.dummies <- name :: b.dummies

  (* Parse a transition reference: "li+", "li-/2", or a dummy name. *)
  let parse_ref b s =
    if List.mem s b.dummies then `Dummy s
    else
      let base, occ =
        match String.index_opt s '/' with
        | Some i ->
          (String.sub s 0 i, int_of_string (String.sub s (i + 1) (String.length s - i - 1)))
        | None -> (s, 1)
      in
      let n = String.length base in
      if n < 2 then failwith (Printf.sprintf "Stg.Build: bad transition %S" s)
      else
        let sig_name = String.sub base 0 (n - 1) in
        (match base.[n - 1] with
        | '+' -> `Edge (sig_name, Rise, occ)
        | '-' -> `Edge (sig_name, Fall, occ)
        | '~' -> `Edge (sig_name, Fall, occ)
        | _ -> failwith (Printf.sprintf "Stg.Build: bad transition %S" s))

  let get_trans b name =
    match Hashtbl.find_opt b.trans_index name with
    | Some t -> t
    | None ->
      let tlabel =
        match parse_ref b name with
        | `Dummy d -> `Dummy d
        | `Edge (s, d, occ) -> `Edge (s, d, occ)
      in
      let tlabel = (match tlabel with `Dummy _ -> `Dummy | `Edge (s, d, o) -> `Edge (s, d, o)) in
      let t = b.n_trans in
      b.n_trans <- t + 1;
      b.transes <- { tname = name; tlabel } :: b.transes;
      Hashtbl.add b.trans_index name t;
      t

  let fresh_place b name producer consumer =
    let p = b.n_places in
    b.n_places <- p + 1;
    b.places <- (name, producer, consumer) :: b.places;
    Hashtbl.add b.place_index name p;
    p

  let implicit_name t1 t2 = Printf.sprintf "<%s,%s>" t1 t2

  let connect b src dst =
    let ts = get_trans b src and td = get_trans b dst in
    let name = implicit_name src dst in
    if Hashtbl.mem b.place_index name then
      failwith (Printf.sprintf "Stg.Build: duplicate arc %s -> %s" src dst);
    let p = fresh_place b name (Some src) (Some dst) in
    b.arcs_tp <- (ts, p) :: b.arcs_tp;
    b.arcs_pt <- (p, td) :: b.arcs_pt

  let place b name =
    if Hashtbl.mem b.place_index name then
      failwith (Printf.sprintf "Stg.Build: duplicate place %s" name);
    ignore (fresh_place b name None None)

  let find_place b name =
    match Hashtbl.find_opt b.place_index name with
    | Some p -> p
    | None -> failwith (Printf.sprintf "Stg.Build: unknown place %s" name)

  let arc_tp b tname pname =
    let t = get_trans b tname in
    b.arcs_tp <- (t, find_place b pname) :: b.arcs_tp

  let arc_pt b pname tname =
    let t = get_trans b tname in
    b.arcs_pt <- (find_place b pname, t) :: b.arcs_pt

  let mark b pname = b.marked <- find_place b pname :: b.marked

  let mark_between b t1 t2 =
    let name = implicit_name t1 t2 in
    match Hashtbl.find_opt b.place_index name with
    | Some p -> b.marked <- p :: b.marked
    | None -> failwith (Printf.sprintf "Stg.Build: no arc %s -> %s to mark" t1 t2)

  let finish b =
    let sigs = Array.of_list (List.rev b.sigs) in
    let signal_names = Array.map (fun (n, _, _) -> n) sigs in
    let kinds = Array.map (fun (_, k, _) -> k) sigs in
    let initial_values = Array.map (fun (_, _, v) -> v) sigs in
    let sig_idx = Hashtbl.create 16 in
    Array.iteri (fun i n -> Hashtbl.replace sig_idx n i) signal_names;
    let transes = Array.of_list (List.rev b.transes) in
    let labels =
      Array.map
        (fun { tname; tlabel } ->
          match tlabel with
          | `Dummy -> Dummy
          | `Edge (s, d, _) -> (
            match Hashtbl.find_opt sig_idx s with
            | Some i -> Edge { signal = i; dir = d }
            | None ->
              failwith (Printf.sprintf "Stg.Build: transition %s uses undeclared signal %s" tname s)))
        transes
    in
    let transition_names = Array.map (fun pt -> pt.tname) transes in
    let place_names = Array.map (fun (n, _, _) -> n) (Array.of_list (List.rev b.places)) in
    let pre = Array.make b.n_trans [] and post = Array.make b.n_trans [] in
    List.iter (fun (t, p) -> post.(t) <- p :: post.(t)) b.arcs_tp;
    List.iter (fun (p, t) -> pre.(t) <- p :: pre.(t)) b.arcs_pt;
    let net =
      Petri.make ~place_names ~transition_names ~pre ~post ~initial:b.marked
    in
    make ~net ~labels ~signal_names ~kinds ~initial_values
end
