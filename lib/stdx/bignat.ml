(* Little-endian limbs in base 10^9.  Base-1e9 keeps limb products inside
   62 bits and makes decimal printing trivial. *)

let base = 1_000_000_000

type t = int array (* invariant: no trailing zero limb; [||] is zero *)

let zero : t = [||]
let one : t = [| 1 |]

let normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int n =
  if n < 0 then invalid_arg "Bignat.of_int: negative";
  let rec limbs n = if n = 0 then [] else (n mod base) :: limbs (n / base) in
  Array.of_list (limbs n)

let to_int t =
  let rec go i acc =
    if i < 0 then Some acc
    else if acc > (max_int - t.(i)) / base then None
    else go (i - 1) ((acc * base) + t.(i))
  in
  go (Array.length t - 1) 0

let add a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb + 1 in
  let out = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    out.(i) <- s mod base;
    carry := s / base
  done;
  normalize out

let mul_int a k =
  if k < 0 then invalid_arg "Bignat.mul_int: negative";
  if k = 0 || Array.length a = 0 then zero
  else begin
    let la = Array.length a in
    let out = Array.make (la + 2) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let p = (a.(i) * k) + !carry in
      out.(i) <- p mod base;
      carry := p / base
    done;
    let i = ref la in
    while !carry > 0 do
      out.(!i) <- !carry mod base;
      carry := !carry / base;
      incr i
    done;
    normalize out
  end

let mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      for j = 0 to lb - 1 do
        let p = out.(i + j) + (a.(i) * b.(j)) + !carry in
        out.(i + j) <- p mod base;
        carry := p / base
      done;
      (* Propagate the final carry; it always fits one extra limb here
         because a.(i)*b.(j) < base^2 and out stays < base. *)
      let k = ref (i + lb) in
      while !carry > 0 do
        let p = out.(!k) + !carry in
        out.(!k) <- p mod base;
        carry := p / base;
        incr k
      done
    done;
    normalize out
  end

let divmod_int a k =
  if k <= 0 then invalid_arg "Bignat.divmod_int: non-positive divisor";
  let la = Array.length a in
  let out = Array.make la 0 in
  let rem = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!rem * base) + a.(i) in
    out.(i) <- cur / k;
    rem := cur mod k
  done;
  (normalize out, !rem)

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let equal a b = compare a b = 0

let to_string t =
  let n = Array.length t in
  if n = 0 then "0"
  else begin
    let buf = Buffer.create (n * 9) in
    Buffer.add_string buf (string_of_int t.(n - 1));
    for i = n - 2 downto 0 do
      Buffer.add_string buf (Printf.sprintf "%09d" t.(i))
    done;
    Buffer.contents buf
  end

let of_string s =
  let len = String.length s in
  if len = 0 then None
  else begin
    (* Chunks of 9 decimal digits map directly onto base-1e9 limbs. *)
    let rec chunks stop acc =
      if stop <= 0 then Some acc
      else begin
        let start = max 0 (stop - 9) in
        let chunk = String.sub s start (stop - start) in
        if String.for_all (fun c -> c >= '0' && c <= '9') chunk then
          chunks start (int_of_string chunk :: acc)
        else None
      end
    in
    match chunks len [] with
    | Some limbs -> Some (normalize (Array.of_list (List.rev limbs)))
    | None -> None
  end

let factorial n =
  if n < 0 then invalid_arg "Bignat.factorial: negative";
  let rec go acc i = if i > n then acc else go (mul_int acc i) (i + 1) in
  go one 1
