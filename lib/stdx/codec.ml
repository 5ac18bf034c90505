type t = { mutable buf : Bytes.t; mutable len : int }

let create ?(size = 64) () = { buf = Bytes.create (max 1 size); len = 0 }

let reset t = t.len <- 0

let length t = t.len

let buffer t = t.buf

let ensure t extra =
  let need = t.len + extra in
  let cap = Bytes.length t.buf in
  if need > cap then begin
    let cap' = ref (2 * cap) in
    while need > !cap' do
      cap' := 2 * !cap'
    done;
    let grown = Bytes.create !cap' in
    Bytes.blit t.buf 0 grown 0 t.len;
    t.buf <- grown
  end

let set_length t len =
  if len < 0 then invalid_arg "Codec.set_length: negative length";
  if len > t.len then ensure t (len - t.len);
  t.len <- len

let add_char t c =
  ensure t 1;
  Bytes.unsafe_set t.buf t.len c;
  t.len <- t.len + 1

let add_byte t b = add_char t (Char.unsafe_chr (b land 0xff))

(* LEB128: one byte per 7 significant bits of the folded value.  [lsr]
   keeps it non-negative, so the loop terminates for every int. *)
let add_varint_long t z =
  ensure t 10;
  let z = ref z in
  while !z land lnot 0x7f <> 0 do
    Bytes.unsafe_set t.buf t.len (Char.unsafe_chr (0x80 lor (!z land 0x7f)));
    t.len <- t.len + 1;
    z := !z lsr 7
  done;
  Bytes.unsafe_set t.buf t.len (Char.unsafe_chr !z);
  t.len <- t.len + 1

(* Zigzag folds the sign into the low bit ([0, -1, 1, -2, …] ↦
   [0, 1, 2, 3, …]).  Most fingerprint varints (counts, messages,
   small protocol values) then fit one byte, written inline.  The test
   is on the bits, not [z < 0x80]: the zigzag of [min_int] is
   negative. *)
let add_varint t n =
  let z = (n lsl 1) lxor (n asr (Sys.int_size - 1)) in
  if z land lnot 0x7f = 0 && t.len < Bytes.length t.buf then begin
    Bytes.unsafe_set t.buf t.len (Char.unsafe_chr z);
    t.len <- t.len + 1
  end
  else add_varint_long t z

let add_substring t s pos len =
  ensure t len;
  Bytes.blit_string s pos t.buf t.len len;
  t.len <- t.len + len

let add_blob t s =
  add_varint t (String.length s);
  add_substring t s 0 (String.length s)

let contents t = Bytes.sub_string t.buf 0 t.len

let varint_at s off =
  let n = String.length s in
  let rec go z shift off =
    if off >= n then invalid_arg "Codec.varint_at: truncated varint"
    else begin
      let b = Char.code (String.unsafe_get s off) in
      let z = z lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then ((z lsr 1) lxor (-(z land 1)), off + 1)
      else go z (shift + 7) (off + 1)
    end
  in
  go 0 0 off

let varint_at_bytes b off =
  let n = Bytes.length b in
  let rec go z shift off =
    if off >= n then invalid_arg "Codec.varint_at_bytes: truncated varint"
    else begin
      let c = Char.code (Bytes.unsafe_get b off) in
      let z = z lor ((c land 0x7f) lsl shift) in
      if c land 0x80 = 0 then ((z lsr 1) lxor (-(z land 1)), off + 1)
      else go z (shift + 7) (off + 1)
    end
  in
  go 0 0 off

let blob_at s off =
  let len, off = varint_at s off in
  if len < 0 || off + len > String.length s then invalid_arg "Codec.blob_at: truncated blob"
  else (String.sub s off len, off + len)
