type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of { pos : int; msg : string }

let fail pos msg = raise (Parse_error { pos; msg })

(* --- parsing --- *)

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    &&
    match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> st.pos <- st.pos + 1
  | Some c' -> fail st.pos (Printf.sprintf "expected %c, found %c" c c')
  | None -> fail st.pos (Printf.sprintf "expected %c, found end of input" c)

let literal st word v =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    v
  end
  else fail st.pos (Printf.sprintf "expected %s" word)

(* Encode a Unicode scalar value as UTF-8 (for \uXXXX escapes). *)
let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let parse_hex4 st =
  if st.pos + 4 > String.length st.src then fail st.pos "truncated \\u escape";
  let v = ref 0 in
  for i = 0 to 3 do
    let c = st.src.[st.pos + i] in
    let d =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail (st.pos + i) "bad hex digit in \\u escape"
    in
    v := (!v * 16) + d
  done;
  st.pos <- st.pos + 4;
  !v

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    if st.pos >= String.length st.src then fail st.pos "unterminated string";
    let c = st.src.[st.pos] in
    st.pos <- st.pos + 1;
    match c with
    | '"' -> Buffer.contents buf
    | '\\' -> (
      if st.pos >= String.length st.src then fail st.pos "unterminated escape";
      let e = st.src.[st.pos] in
      st.pos <- st.pos + 1;
      (match e with
      | '"' -> Buffer.add_char buf '"'
      | '\\' -> Buffer.add_char buf '\\'
      | '/' -> Buffer.add_char buf '/'
      | 'b' -> Buffer.add_char buf '\b'
      | 'f' -> Buffer.add_char buf '\012'
      | 'n' -> Buffer.add_char buf '\n'
      | 'r' -> Buffer.add_char buf '\r'
      | 't' -> Buffer.add_char buf '\t'
      | 'u' ->
        let hi = parse_hex4 st in
        (* Surrogate pair: a high surrogate must be followed by \uDC00-
           \uDFFF; combine into one scalar value. *)
        if hi >= 0xD800 && hi <= 0xDBFF then begin
          if
            st.pos + 6 <= String.length st.src
            && st.src.[st.pos] = '\\'
            && st.src.[st.pos + 1] = 'u'
          then begin
            st.pos <- st.pos + 2;
            let lo = parse_hex4 st in
            if lo < 0xDC00 || lo > 0xDFFF then fail st.pos "invalid low surrogate";
            add_utf8 buf (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
          end
          else fail st.pos "lone high surrogate"
        end
        else if hi >= 0xDC00 && hi <= 0xDFFF then fail st.pos "lone low surrogate"
        else add_utf8 buf hi
      | _ -> fail (st.pos - 1) "bad escape character");
      loop ())
    | c when Char.code c < 0x20 -> fail (st.pos - 1) "raw control character in string"
    | c ->
      Buffer.add_char buf c;
      loop ()
  in
  loop ()

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  (match peek st with Some '-' -> st.pos <- st.pos + 1 | _ -> ());
  let digits () =
    let d0 = st.pos in
    while
      st.pos < String.length st.src
      && match st.src.[st.pos] with '0' .. '9' -> true | _ -> false
    do
      st.pos <- st.pos + 1
    done;
    if st.pos = d0 then fail st.pos "expected digit"
  in
  digits ();
  (match peek st with
  | Some '.' ->
    is_float := true;
    st.pos <- st.pos + 1;
    digits ()
  | _ -> ());
  (match peek st with
  | Some ('e' | 'E') ->
    is_float := true;
    st.pos <- st.pos + 1;
    (match peek st with
    | Some ('+' | '-') -> st.pos <- st.pos + 1
    | _ -> ());
    digits ()
  | _ -> ());
  let text = String.sub st.src start (st.pos - start) in
  if !is_float then Float (float_of_string text)
  else
    match int_of_string_opt text with
    | Some n -> Int n
    | None -> Float (float_of_string text)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st.pos "unexpected end of input"
  | Some '{' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some '}' then begin
      st.pos <- st.pos + 1;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec members () =
        skip_ws st;
        let kpos = st.pos in
        let k = parse_string st in
        if List.mem_assoc k !fields then
          fail kpos (Printf.sprintf "duplicate key %S" k);
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        fields := (k, v) :: !fields;
        skip_ws st;
        match peek st with
        | Some ',' ->
          st.pos <- st.pos + 1;
          members ()
        | Some '}' -> st.pos <- st.pos + 1
        | _ -> fail st.pos "expected , or } in object"
      in
      members ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some ']' then begin
      st.pos <- st.pos + 1;
      List []
    end
    else begin
      let items = ref [] in
      let rec elements () =
        let v = parse_value st in
        items := v :: !items;
        skip_ws st;
        match peek st with
        | Some ',' ->
          st.pos <- st.pos + 1;
          elements ()
        | Some ']' -> st.pos <- st.pos + 1
        | _ -> fail st.pos "expected , or ] in array"
      in
      elements ();
      List (List.rev !items)
    end
  | Some '"' -> String (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st.pos (Printf.sprintf "unexpected character %c" c)

let parse src =
  let st = { src; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length src then fail st.pos "trailing garbage after value";
  v

(* --- printing --- *)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* Integrality is judged on the printed value, not the given one, so a
   parse of the output prints back to the same text: a cached response,
   stored as text and re-parsed on a hit, renders byte-identical to the
   computed one.  Adding 0.0 turns a printed -0 into 0. *)
let float_str f =
  let s = Printf.sprintf "%.6f" f in
  let printed = float_of_string s +. 0.0 in
  if Float.is_integer printed && Float.abs printed < 1e15 then
    Printf.sprintf "%.0f" printed
  else s

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float f -> Buffer.add_string buf (float_str f)
    | String s -> Buffer.add_string buf (escape_string s)
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          go item)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (escape_string k);
          Buffer.add_char buf ':';
          go item)
        fields;
      Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* --- accessors --- *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
let to_int = function Int n -> Some n | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_str = function String s -> Some s | _ -> None

let to_float = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None
