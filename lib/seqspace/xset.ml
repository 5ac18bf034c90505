module B = Stdx.Bignat

type t =
  | Explicit of int list list
  | All_upto of { domain : int; max_len : int }
  | Norep_full of { domain : int }

let domain = function
  | Explicit xs ->
      let max_sym = List.fold_left (fun acc x -> List.fold_left max acc x) (-1) xs in
      max 1 (max_sym + 1)
  | All_upto { domain; _ } | Norep_full { domain } -> domain

let cardinality = function
  | Explicit xs -> B.of_int (List.length xs)
  | All_upto { domain; max_len } ->
      (* Σ_{k=0}^{L} domain^k *)
      let rec go acc pow k =
        if k > max_len then acc else go (B.add acc pow) (B.mul_int pow domain) (k + 1)
      in
      go B.zero B.one 0
  | Norep_full { domain } -> Alpha.alpha domain

let cardinality_int t =
  match B.to_int (cardinality t) with
  | Some n -> n
  | None -> failwith "Xset.cardinality_int: overflow"

let to_list = function
  | Explicit xs -> xs
  | All_upto { domain; max_len } ->
      let extend xs = List.map (fun s -> xs @ [ s ]) (List.init domain Fun.id) in
      let rec levels acc level k =
        if k > max_len then List.concat (List.rev acc)
        else begin
          let next = List.concat_map extend level in
          levels (next :: acc) next (k + 1)
        end
      in
      levels [ [ [] ] ] [ [] ] 1
  | Norep_full { domain } -> Norep.enumerate ~m:domain

let mem t x =
  match t with
  | Explicit xs -> List.mem x xs
  | All_upto { domain; max_len } ->
      List.length x <= max_len && List.for_all (fun s -> s >= 0 && s < domain) x
  | Norep_full { domain } -> Norep.is_norep x && Norep.is_over ~m:domain x

let rec is_prefix p x =
  match (p, x) with
  | [], _ -> true
  | _, [] -> false
  | a :: p', b :: x' -> a = b && is_prefix p' x'

let rec lcp a b =
  match (a, b) with
  | x :: a', y :: b' when x = y -> x :: lcp a' b'
  | _ -> []

let truncate i x = List.filteri (fun j _ -> j < i) x

let beta t =
  let members = to_list t in
  let distinguishes i =
    let rec pairs = function
      | [] -> true
      | x :: rest ->
          List.for_all
            (fun y ->
              let tx = truncate i x and ty = truncate i y in
              tx <> ty
              || (List.length x < i && is_prefix x y)
              || (List.length y < i && is_prefix y x))
            rest
          && pairs rest
    in
    pairs members
  in
  let max_len = List.fold_left (fun acc x -> max acc (List.length x)) 0 members in
  let rec find i = if i > max_len then max_len else if distinguishes i then i else find (i + 1) in
  find 0

let distinct_non_prefix_pairs t =
  let members = to_list t in
  let rec pairs = function
    | [] -> []
    | x :: rest ->
        List.filter_map
          (fun y -> if is_prefix x y || is_prefix y x then None else Some (x, y))
          rest
        @ pairs rest
  in
  pairs members

let sequence_text x = "<" ^ String.concat " " (List.map string_of_int x) ^ ">"

let pp_sequence ppf x = Format.pp_print_string ppf (sequence_text x)
