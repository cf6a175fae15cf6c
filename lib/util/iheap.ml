(* Int-specialized binary min-heap stored as parallel arrays, so pushes
   and pops allocate nothing (amortized).  Entries carry a sequence
   number: equal keys pop in insertion order. *)

type t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create ?(capacity = 16) () =
  let capacity = max capacity 1 in
  {
    keys = Array.make capacity 0;
    seqs = Array.make capacity 0;
    vals = Array.make capacity 0;
    size = 0;
    next_seq = 0;
  }

let is_empty h = h.size = 0
let length h = h.size

let less h i j =
  let ki = Array.unsafe_get h.keys i and kj = Array.unsafe_get h.keys j in
  ki < kj || (ki = kj && Array.unsafe_get h.seqs i < Array.unsafe_get h.seqs j)

let swap h i j =
  let k = h.keys.(i) in
  h.keys.(i) <- h.keys.(j);
  h.keys.(j) <- k;
  let s = h.seqs.(i) in
  h.seqs.(i) <- h.seqs.(j);
  h.seqs.(j) <- s;
  let v = h.vals.(i) in
  h.vals.(i) <- h.vals.(j);
  h.vals.(j) <- v

let grow h =
  let cap = Array.length h.keys in
  if h.size >= cap then begin
    let ncap = 2 * cap in
    let extend a =
      let a' = Array.make ncap 0 in
      Array.blit a 0 a' 0 h.size;
      a'
    in
    h.keys <- extend h.keys;
    h.seqs <- extend h.seqs;
    h.vals <- extend h.vals
  end

let push h key value =
  grow h;
  let i = ref h.size in
  h.keys.(!i) <- key;
  h.seqs.(!i) <- h.next_seq;
  h.vals.(!i) <- value;
  h.next_seq <- h.next_seq + 1;
  h.size <- h.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if less h !i parent then begin
      swap h !i parent;
      i := parent
    end
    else continue := false
  done

let top_key h =
  if h.size = 0 then invalid_arg "Iheap.top_key: empty heap";
  h.keys.(0)

let top_value h =
  if h.size = 0 then invalid_arg "Iheap.top_value: empty heap";
  h.vals.(0)

let drop_min h =
  if h.size = 0 then invalid_arg "Iheap.drop_min: empty heap";
  h.size <- h.size - 1;
  if h.size > 0 then begin
    h.keys.(0) <- h.keys.(h.size);
    h.seqs.(0) <- h.seqs.(h.size);
    h.vals.(0) <- h.vals.(h.size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.size && less h l !smallest then smallest := l;
      if r < h.size && less h r !smallest then smallest := r;
      if !smallest <> !i then begin
        swap h !i !smallest;
        i := !smallest
      end
      else continue := false
    done
  end

let clear h =
  h.size <- 0;
  h.next_seq <- 0
