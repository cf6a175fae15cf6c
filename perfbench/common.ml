(* Shared plumbing of the benchmark: clocks, percentiles, seeded draws,
   the process's peak memory, and the record every workload pass
   returns. *)

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Nearest-rank percentile of an unsorted sample; [p] in [0, 100]. *)
let percentile p samples =
  match samples with
  | [] -> 0.0
  | _ ->
    let a = Array.of_list samples in
    Array.sort Float.compare a;
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* The middle value, or the mean of the two middle values of an even
   sample: nearest rank would take the lower one and read a run of two
   passes as its faster pass, and a run of one as its only pass. *)
let median samples =
  match samples with
  | [] -> 0.0
  | _ ->
    let a = Array.of_list samples in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Samples strictly above the nearest-rank [p]-th percentile: a tail
   percentile is meaningful only with ten or more. *)
let samples_beyond p n =
  n - max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)))

let rng ~seed ~salt = Random.State.make [| seed; salt |]

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Unix.unlink p

let digest s = Digest.to_hex (Digest.string s)

(* VmHWM of this process in MB: its resident high-water mark. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> 0.0
      in
      scan ())

(* Run [f] in a forked child process and return its result, marshalled
   back through a pipe.  OCaml refuses to fork a process that has ever
   started a second domain, so this one must not have.  The child leaves
   with [_exit]: nothing this process buffered or registered runs
   twice. *)
let in_child (f : unit -> 'a) : 'a =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    let r = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    Marshal.to_channel oc (r : ('a, string) result) [];
    flush_all ();
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let rec reap () =
      match Unix.waitpid [] pid with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    in
    let r =
      Fun.protect
        ~finally:(fun () ->
          close_in_noerr ic;
          reap ())
        (fun () -> (Marshal.from_channel ic : ('a, string) result))
    in
    (match r with Ok v -> v | Error msg -> failwith ("child process: " ^ msg))

let nproc () =
  let ic = Unix.open_process_in "nproc" in
  let n =
    Fun.protect
      ~finally:(fun () -> ignore (Unix.close_process_in ic))
      (fun () -> int_of_string_opt (String.trim (input_line ic)))
  in
  Option.value ~default:0 n

(* One operation of a pass: one [Flow.synthesize] call, one daemon
   request or one simulator call.  [digest] is the digest of the
   deterministic text the check compares under [key], taken as soon as
   the operation ends so that a run never holds its outputs; [None]
   when the operation raised or was answered with an error. *)
type op = {
  key : string;
  ms : float;
  digest : string option;
  cached : bool;  (** served from the daemon's response cache *)
}

type pass = {
  wall_s : float;  (** the timed region *)
  ops : op list;
  props : (string * float) list;
      (** workload properties and the pass's own layer numbers *)
}

(* Time [run] alone; [render] turns its result into the checked text
   outside the operation's latency. *)
let op_of ~key run render =
  let t0 = now () in
  let r = try Some (run ()) with _ -> None in
  let ms = (now () -. t0) *. 1000.0 in
  { key; ms; digest = Option.map (fun r -> digest (render r)) r; cached = false }

module Flow = Rtcad_core.Flow

let flow_text (r : Flow.t) =
  Format.asprintf "%a@.%a" Flow.pp_report r Rtcad_netlist.Netlist.pp
    r.Flow.netlist
