module IntMap = Map.Make (Int)

type t = int IntMap.t (* invariant: all bound multiplicities are > 0 *)

let empty = IntMap.empty

let is_empty = IntMap.is_empty

let count t x = match IntMap.find_opt x t with Some n -> n | None -> 0

let add ?(times = 1) t x =
  if times < 0 then invalid_arg "Multiset.add: negative multiplicity";
  if times = 0 then t else IntMap.add x (count t x + times) t

let remove t x =
  match IntMap.find_opt x t with
  | None -> None
  | Some 1 -> Some (IntMap.remove x t)
  | Some n -> Some (IntMap.add x (n - 1) t)

let support t = IntMap.fold (fun x _ acc -> x :: acc) t [] |> List.rev

let cardinal t = IntMap.fold (fun _ n acc -> acc + n) t 0

let distinct t = IntMap.cardinal t

let fold f t init = IntMap.fold f t init

let union a b = IntMap.union (fun _ m n -> Some (m + n)) a b

let leq a b = IntMap.for_all (fun x n -> n <= count b x) a

let of_list xs = List.fold_left (fun t x -> add t x) empty xs

let to_list t =
  IntMap.fold (fun x n acc -> List.rev_append (List.init n (fun _ -> x)) acc) t []
  |> List.rev

let encode t =
  let buf = Buffer.create 32 in
  IntMap.iter (fun x n -> Buffer.add_string buf (Printf.sprintf "%d:%d;" x n)) t;
  Buffer.contents buf

(* Binary form: distinct-count header, then (element, multiplicity)
   varint pairs in ascending element order — canonical because the map
   iterates in key order and multiplicities are always positive. *)
let emit c t =
  Codec.add_varint c (IntMap.cardinal t);
  IntMap.iter
    (fun x n ->
      Codec.add_varint c x;
      Codec.add_varint c n)
    t

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf (x, n) -> Format.fprintf ppf "%d^%d" x n))
    (IntMap.bindings t)
