type t = { mutable words : Bytes.t; mutable cardinal : int }

(* Bytes rather than an int array: the GC never scans it, and the
   doubling growth keeps amortised insertion O(1).  Bit [i] lives in
   byte [i lsr 3] at position [i land 7]. *)

let create ?(size = 1024) () =
  { words = Bytes.make (max 1 ((size + 7) lsr 3)) '\000'; cardinal = 0 }

let ensure t i =
  let need = (i lsr 3) + 1 in
  let cap = Bytes.length t.words in
  if need > cap then begin
    let cap' = ref (cap * 2) in
    while need > !cap' do
      cap' := !cap' * 2
    done;
    let w = Bytes.make !cap' '\000' in
    Bytes.blit t.words 0 w 0 cap;
    t.words <- w
  end

let mem t i =
  if i < 0 then invalid_arg "Bitset.mem: negative index";
  let byte = i lsr 3 in
  byte < Bytes.length t.words
  && Char.code (Bytes.unsafe_get t.words byte) land (1 lsl (i land 7)) <> 0

let add t i =
  if i < 0 then invalid_arg "Bitset.add: negative index";
  ensure t i;
  let byte = i lsr 3 in
  let bit = 1 lsl (i land 7) in
  let w = Char.code (Bytes.unsafe_get t.words byte) in
  if w land bit = 0 then begin
    Bytes.unsafe_set t.words byte (Char.unsafe_chr (w lor bit));
    t.cardinal <- t.cardinal + 1;
    true
  end
  else false

let cardinal t = t.cardinal

let clear t =
  Bytes.fill t.words 0 (Bytes.length t.words) '\000';
  t.cardinal <- 0
