type 'a t = { mutable buf : 'a array; mutable head : int; mutable len : int }

let create () = { buf = [||]; head = 0; len = 0 }

let is_empty t = t.len = 0

let grow t x =
  let cap = Array.length t.buf in
  if cap = 0 then t.buf <- Array.make 16 x
  else begin
    (* Unroll the circular contents to the front of a doubled buffer. *)
    let buf = Array.make (cap * 2) x in
    let tail = cap - t.head in
    Array.blit t.buf t.head buf 0 (min t.len tail);
    if t.len > tail then Array.blit t.buf 0 buf tail (t.len - tail);
    t.buf <- buf;
    t.head <- 0
  end

let push t x =
  if t.len = Array.length t.buf then grow t x;
  t.buf.((t.head + t.len) mod Array.length t.buf) <- x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Ring.pop: empty";
  let v = t.buf.(t.head) in
  t.len <- t.len - 1;
  (* Point the vacated slot at the current head element so the ring
     never retains more than one stale value (the last pop before it
     goes empty); no option boxing, no dummy element. *)
  let head' = (t.head + 1) mod Array.length t.buf in
  if t.len > 0 then t.buf.(t.head) <- t.buf.(head');
  t.head <- head';
  v
