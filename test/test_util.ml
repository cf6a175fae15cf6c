(* Tests for Rtcad_util.Iheap, Rng and Stats. *)

module Iheap = Rtcad_util.Iheap
module Rng = Rtcad_util.Rng
module Stats = Rtcad_util.Stats

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Iheap: the simulator's event queue.  Its tie order (equal keys pop in
   insertion order) is what keeps simulations deterministic. *)

let drain h =
  let rec go acc =
    if Iheap.is_empty h then List.rev acc
    else begin
      let kv = (Iheap.top_key h, Iheap.top_value h) in
      Iheap.drop_min h;
      go (kv :: acc)
    end
  in
  go []

let test_heap_order () =
  let h = Iheap.create () in
  List.iter (fun k -> Iheap.push h k k) [ 5; 1; 4; 1; 3 ];
  Alcotest.(check (list int)) "sorted" [ 1; 1; 3; 4; 5 ] (List.map fst (drain h))

let test_heap_fifo_ties () =
  let h = Iheap.create ~capacity:1 () in
  List.iteri (fun i k -> Iheap.push h k i) [ 7; 3; 7; 5; 7; 3; 7 ];
  Alcotest.(check (list (pair int int)))
    "key order, then insertion order"
    [ (3, 1); (3, 5); (5, 3); (7, 0); (7, 2); (7, 4); (7, 6) ]
    (drain h)

let test_heap_empty () =
  let h = Iheap.create () in
  check "empty" true (Iheap.is_empty h);
  Alcotest.check_raises "top_key on empty"
    (Invalid_argument "Iheap.top_key: empty heap") (fun () -> ignore (Iheap.top_key h));
  Alcotest.check_raises "drop_min on empty"
    (Invalid_argument "Iheap.drop_min: empty heap") (fun () -> Iheap.drop_min h);
  Iheap.push h 1 0;
  check_int "length" 1 (Iheap.length h);
  Iheap.clear h;
  check "cleared" true (Iheap.is_empty h)

(* Keys from a small range, so most lists have ties: the drain must be
   the stable sort of (key, insertion index). *)
let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains sorted" ~count:200
    QCheck.(list (int_range 0 20))
    (fun keys ->
      let h = Iheap.create () in
      List.iteri (fun i k -> Iheap.push h k i) keys;
      drain h
      = List.stable_sort
          (fun (a, _) (b, _) -> Int.compare a b)
          (List.mapi (fun i k -> (k, i)) keys))

(* Rng. *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  check "same stream" true
    (List.for_all (fun _ -> Rng.int a 1000 = Rng.int b 1000) (List.init 50 Fun.id))

let test_rng_bounds () =
  let rng = Rng.create 3 in
  check "int in range" true
    (List.for_all (fun _ -> let v = Rng.int rng 7 in v >= 0 && v < 7)
       (List.init 500 Fun.id));
  check "float in range" true
    (List.for_all
       (fun _ -> let v = Rng.float rng 2.5 in v >= 0.0 && v < 2.5)
       (List.init 500 Fun.id))

let test_rng_weighted () =
  let rng = Rng.create 9 in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 3000 do
    let v = Rng.weighted rng [ (1, "rare"); (9, "common") ] in
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  let rare = Option.value ~default:0 (Hashtbl.find_opt counts "rare") in
  let common = Option.value ~default:0 (Hashtbl.find_opt counts "common") in
  check "both occur" true (rare > 0 && common > 0);
  check "ratio roughly 1:9" true (common > 5 * rare)

let test_rng_errors () =
  let rng = Rng.create 1 in
  check "bad bound" true
    (try
       ignore (Rng.int rng 0);
       false
     with Invalid_argument _ -> true);
  check "empty pick" true
    (try
       ignore (Rng.pick rng [||]);
       false
     with Invalid_argument _ -> true)

let test_rng_split () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  (* The split stream must differ from the parent's continuation. *)
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  check "independent" true (xs <> ys)

(* Stats. *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check_int "count" 4 (Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.min_value s);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.max_value s);
  Alcotest.(check (float 1e-9)) "total" 10.0 (Stats.total s);
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 1.25) (Stats.stddev s)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check (float 0.0)) "mean 0" 0.0 (Stats.mean s);
  check "min raises" true
    (try
       ignore (Stats.min_value s);
       false
     with Invalid_argument _ -> true)

let prop_stats_mean_bounds =
  QCheck.Test.make ~name:"mean within min/max" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_range (-100.) 100.))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      Stats.mean s >= Stats.min_value s -. 1e-9
      && Stats.mean s <= Stats.max_value s +. 1e-9)

let suite =
  [
    ( "heap",
      [
        Alcotest.test_case "ordering" `Quick test_heap_order;
        Alcotest.test_case "fifo among ties" `Quick test_heap_fifo_ties;
        Alcotest.test_case "empty ops" `Quick test_heap_empty;
        QCheck_alcotest.to_alcotest prop_heap_sorts;
      ] );
    ( "rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "bounds" `Quick test_rng_bounds;
        Alcotest.test_case "weighted" `Quick test_rng_weighted;
        Alcotest.test_case "errors" `Quick test_rng_errors;
        Alcotest.test_case "split" `Quick test_rng_split;
      ] );
    ( "stats",
      [
        Alcotest.test_case "basic" `Quick test_stats_basic;
        Alcotest.test_case "empty" `Quick test_stats_empty;
        QCheck_alcotest.to_alcotest prop_stats_mean_bounds;
      ] );
  ]
