(* Open-addressing hash-cons table.  The generic [Hashtbl] forced
   every probe to present a [string] key, which meant the engines had
   to materialise a fresh fingerprint string per *generated* state
   just to ask "seen before?".  This table hashes and compares
   directly against a caller-owned byte range, so a duplicate state
   (the overwhelmingly common case in a saturating BFS) costs one hash
   and one compare — zero allocation. *)

type t = {
  mutable slots : int array;  (* id + 1; 0 = empty.  Power-of-two sized. *)
  mutable mask : int;  (* Array.length slots - 1 *)
  mutable hashes : int array;  (* hashes.(i) is the cached hash of names.(i) *)
  mutable names : string array;  (* names.(i) is the string with id i, for i < n *)
  mutable n : int;
}

let rec pow2_above k n = if n >= k then n else pow2_above k (2 * n)

let create ?(size = 1024) () =
  let cap = pow2_above (max 16 size) 16 in
  { slots = Array.make cap 0; mask = cap - 1; hashes = Array.make 64 0; names = Array.make 64 ""; n = 0 }

(* Unaligned, unchecked 64-bit loads: callers keep [i + 8] in range. *)
external bytes_get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external string_get64u : string -> int -> int64 = "%caml_string_get64u"

(* Eight bytes per step, then the tail bytes singly.  The int
   conversion drops each word's top bit; the exact compare below
   resolves collisions, so that only costs hash spread. *)
let mix h =
  let h = h * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

let hash_sub b pos len =
  let h = ref len in
  let stop = pos + len in
  let i = ref pos in
  while !i + 8 <= stop do
    h := mix (!h lxor Int64.to_int (bytes_get64u b !i));
    i := !i + 8
  done;
  while !i < stop do
    h := mix (!h lxor Char.code (Bytes.unsafe_get b !i));
    incr i
  done;
  !h land max_int

(* Top-level rather than local, so a compare allocates no closure. *)
let rec eq_tail name b pos i len =
  i = len
  || (String.unsafe_get name i = Bytes.unsafe_get b (pos + i) && eq_tail name b pos (i + 1) len)

let rec eq_words name b pos i len =
  if i + 8 <= len then
    string_get64u name i = bytes_get64u b (pos + i) && eq_words name b pos (i + 8) len
  else eq_tail name b pos i len

let eq_sub name b pos len = String.length name = len && eq_words name b pos 0 len

let grow_slots t =
  let cap = 2 * Array.length t.slots in
  let slots = Array.make cap 0 in
  let mask = cap - 1 in
  for id = 0 to t.n - 1 do
    let i = ref (t.hashes.(id) land mask) in
    while slots.(!i) <> 0 do
      i := (!i + 1) land mask
    done;
    slots.(!i) <- id + 1
  done;
  t.slots <- slots;
  t.mask <- mask

let grow_names t =
  let cap = Array.length t.names in
  let names = Array.make (2 * cap) "" in
  let hashes = Array.make (2 * cap) 0 in
  Array.blit t.names 0 names 0 cap;
  Array.blit t.hashes 0 hashes 0 cap;
  t.names <- names;
  t.hashes <- hashes

(* Core probe: find the id of [b[pos, pos+len)] or the empty slot
   where it belongs.  [alloc] decides whether a miss allocates the
   next dense id (copying the range to a fresh string) or reports
   absence. *)
let probe t b pos len ~alloc =
  let h = hash_sub b pos len in
  let i = ref (h land t.mask) in
  let found = ref (-1) in
  let continue = ref true in
  while !continue do
    let s = t.slots.(!i) in
    if s = 0 then continue := false
    else begin
      let id = s - 1 in
      if t.hashes.(id) = h && eq_sub t.names.(id) b pos len then begin
        found := id;
        continue := false
      end
      else i := (!i + 1) land t.mask
    end
  done;
  if !found >= 0 then (!found, false)
  else if not alloc then (-1, false)
  else begin
    let id = t.n in
    if id >= Array.length t.names then grow_names t;
    t.names.(id) <- Bytes.sub_string b pos len;
    t.hashes.(id) <- h;
    t.slots.(!i) <- id + 1;
    t.n <- id + 1;
    (* Resize at 50% load; re-probing is cheap with cached hashes. *)
    if 2 * t.n > Array.length t.slots then grow_slots t;
    (id, true)
  end

let intern_bytes t b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Intern.intern_bytes: range out of bounds";
  probe t b pos len ~alloc:true

(* [Bytes.unsafe_of_string] is a read-only borrow: [probe] never
   writes through it, and on a miss the stored name is a fresh
   [sub_string] copy. *)
let intern t s = probe t (Bytes.unsafe_of_string s) 0 (String.length s) ~alloc:true

let id t s = fst (intern t s)

let find_opt t s =
  match probe t (Bytes.unsafe_of_string s) 0 (String.length s) ~alloc:false with
  | -1, _ -> None
  | id, _ -> Some id

let name t i =
  if i < 0 || i >= t.n then invalid_arg (Printf.sprintf "Intern.name: id %d not allocated" i);
  t.names.(i)

let length t = t.n

(* Capacity stays: a table reused for a run of searches grows once.
   Only the occupied slots are zeroed, each found from its id's cached
   hash (the scan passes slots already zeroed), so emptying costs the
   ids interned, not the capacity a larger earlier search left.  The
   names are dropped so the table holds no string past its search. *)
let clear t =
  for id = 0 to t.n - 1 do
    let i = ref (t.hashes.(id) land t.mask) in
    while t.slots.(!i) <> id + 1 do
      i := (!i + 1) land t.mask
    done;
    t.slots.(!i) <- 0;
    t.names.(id) <- ""
  done;
  t.n <- 0
