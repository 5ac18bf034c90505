type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

(* Pure indexed splitting: the child stream is a function of the
   parent's *current* state and the index alone — the parent is not
   advanced — so [split base i] is the same generator no matter how
   many other children were split off first, or on which domain.  The
   double mix decorrelates children whose pre-mix states differ by a
   small multiple of the golden gamma. *)
let split t i =
  let base = Int64.add t.state (Int64.mul (Int64.of_int (i + 1)) golden_gamma) in
  { state = mix (Int64.add (mix base) golden_gamma) }

let int t n =
  assert (n > 0);
  (* Rejection-free for our purposes: modulo bias is negligible for the
     small ranges used in simulation (n << 2^62).  Shift by 2 so the
     value fits OCaml's 63-bit int without touching the sign bit. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod n

let bool t = Int64.logand (bits64 t) 1L = 1L

let float t =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  v /. 9007199254740992.0 (* 2^53 *)

let pick t xs =
  match xs with
  | [] -> invalid_arg "Rng.pick: empty list"
  | _ -> List.nth xs (int t (List.length xs))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
