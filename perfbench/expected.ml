(* Committed expected outputs: one [key<TAB>md5] line per operation
   key, where the digest covers only deterministic fields (reports,
   netlist text, response results, simulated statistics).  The files
   are written by [main.exe expect] and validated once by
   [main.exe validate] against the repository's independent oracles. *)

type t = (string, string) Hashtbl.t

let dir = Filename.concat "perfbench" "expected"
let path workload = Filename.concat dir (workload ^ ".txt")

let load workload : t =
  let tbl = Hashtbl.create 256 in
  let ic = open_in (path workload) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line ->
          (match String.index_opt line '\t' with
          | Some i ->
            Hashtbl.replace tbl (String.sub line 0 i)
              (String.sub line (i + 1) (String.length line - i - 1))
          | None -> if String.trim line <> "" then failwith ("bad expected line: " ^ line));
          go ()
        | exception End_of_file -> ()
      in
      go ());
  tbl

let save workload entries =
  let oc = open_out (path workload) in
  List.iter
    (fun (k, text) -> Printf.fprintf oc "%s\t%s\n" k (Common.digest text))
    (List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) entries);
  close_out oc

(* An operation passes when it produced output and the output's digest
   is the committed one for its key; an unknown key fails. *)
let op_ok (exp : t) (op : Common.op) =
  match (op.Common.digest, Hashtbl.find_opt exp op.Common.key) with
  | Some got, Some d -> String.equal got d
  | _ -> false

(* Flip one hex digit of the digest stored under [key]. *)
let perturb (exp : t) key =
  match Hashtbl.find_opt exp key with
  | None -> invalid_arg ("perturb: no expected value for " ^ key)
  | Some d ->
    let b = Bytes.of_string d in
    Bytes.set b 0 (if Bytes.get b 0 = '0' then '1' else '0');
    Hashtbl.replace exp key (Bytes.to_string b)
