(* Unit and property tests for the stdx utility library. *)

module Rng = Stdx.Rng
module Bignat = Stdx.Bignat
module Multiset = Stdx.Multiset
module Deque = Stdx.Deque
module Stats = Stdx.Stats
module Intern = Stdx.Intern
module Codec = Stdx.Codec
module Frontier = Stdx.Frontier
module Json = Stdx.Json

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------- Rng ------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  check Alcotest.bool "different seeds differ" false (Rng.bits64 a = Rng.bits64 b)

let test_rng_copy_replays () =
  let a = Rng.create 7 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  check Alcotest.int64 "copy replays" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a 0 in
  check Alcotest.bool "split streams differ" false (Rng.bits64 a = Rng.bits64 b)

let test_rng_split_pure () =
  let a = Rng.create 11 in
  let b1 = Rng.bits64 (Rng.split a 3) in
  (* Deriving other children (in any order) must not perturb child 3,
     and the parent must not advance. *)
  ignore (Rng.bits64 (Rng.split a 0));
  ignore (Rng.bits64 (Rng.split a 7));
  let b2 = Rng.bits64 (Rng.split a 3) in
  check Alcotest.int64 "split is pure in the parent" b1 b2;
  check Alcotest.int64 "parent state unmoved" (Rng.bits64 (Rng.create 11)) (Rng.bits64 a)

let prop_rng_split_prefixes_disjoint =
  QCheck.Test.make ~name:"Rng.split streams are stable and prefix-disjoint"
    QCheck.(pair small_int (pair (int_range 0 50) (int_range 0 50)))
    (fun (seed, (i, j)) ->
      let prefix k =
        let r = Rng.split (Rng.create seed) k in
        List.init 32 (fun _ -> Rng.bits64 r)
      in
      let again = prefix i in
      prefix i = again
      && (i = j
         || List.for_all (fun v -> not (List.mem v (prefix j))) again))

let prop_rng_int_range =
  QCheck.Test.make ~name:"Rng.int stays in range"
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let v = Rng.int rng n in
      v >= 0 && v < n)

let test_rng_bool_both_values () =
  let rng = Rng.create 3 in
  let seen_true = ref false and seen_false = ref false in
  for _ = 1 to 200 do
    if Rng.bool rng then seen_true := true else seen_false := true
  done;
  check Alcotest.bool "both" true (!seen_true && !seen_false)

let test_rng_float_range () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let f = Rng.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done

let prop_rng_shuffle_permutes =
  QCheck.Test.make ~name:"Rng.shuffle is a permutation"
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let a = Array.of_list xs in
      Rng.shuffle (Rng.create seed) a;
      List.sort compare (Array.to_list a) = List.sort compare xs)

(* ------------------------- Bignat ------------------------- *)

let prop_bignat_int_roundtrip =
  QCheck.Test.make ~name:"Bignat of_int/to_int roundtrip"
    QCheck.(int_range 0 max_int)
    (fun n -> Bignat.to_int (Bignat.of_int n) = Some n)

let prop_bignat_add_matches_int =
  QCheck.Test.make ~name:"Bignat.add matches int addition"
    QCheck.(pair (int_range 0 1_000_000_000) (int_range 0 1_000_000_000))
    (fun (a, b) ->
      Bignat.to_int (Bignat.add (Bignat.of_int a) (Bignat.of_int b)) = Some (a + b))

let prop_bignat_mul_matches_int =
  QCheck.Test.make ~name:"Bignat.mul matches int multiplication"
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 1_000_000))
    (fun (a, b) ->
      Bignat.to_int (Bignat.mul (Bignat.of_int a) (Bignat.of_int b)) = Some (a * b))

let prop_bignat_divmod =
  QCheck.Test.make ~name:"Bignat.divmod_int reconstructs"
    QCheck.(pair (int_range 0 1_000_000_000) (int_range 1 100_000))
    (fun (a, k) ->
      let q, r = Bignat.divmod_int (Bignat.of_int a) k in
      match Bignat.to_int q with Some q -> (q * k) + r = a && r >= 0 && r < k | None -> false)

let test_bignat_factorial () =
  check Alcotest.string "20!" "2432902008176640000" (Bignat.to_string (Bignat.factorial 20));
  check Alcotest.string "25!" "15511210043330985984000000"
    (Bignat.to_string (Bignat.factorial 25));
  check Alcotest.string "0!" "1" (Bignat.to_string (Bignat.factorial 0))

let test_bignat_overflow_detection () =
  check Alcotest.bool "25! does not fit" true (Bignat.to_int (Bignat.factorial 25) = None)

let prop_bignat_compare_total =
  QCheck.Test.make ~name:"Bignat.compare matches int compare"
    QCheck.(pair (int_range 0 2_000_000_000) (int_range 0 2_000_000_000))
    (fun (a, b) ->
      Bignat.compare (Bignat.of_int a) (Bignat.of_int b) = Int.compare a b)

let test_bignat_zero_one () =
  check Alcotest.string "zero" "0" (Bignat.to_string Bignat.zero);
  check Alcotest.string "one" "1" (Bignat.to_string Bignat.one);
  check Alcotest.bool "0 = of_int 0" true (Bignat.equal Bignat.zero (Bignat.of_int 0))

let test_bignat_mul_int_carry () =
  (* Exercise the multi-limb carry path. *)
  let big = Bignat.factorial 30 in
  let doubled = Bignat.mul_int big 2 in
  check Alcotest.bool "2*30! = 30!+30!" true (Bignat.equal doubled (Bignat.add big big))

(* ------------------------- Multiset ------------------------- *)

let prop_multiset_counts =
  QCheck.Test.make ~name:"Multiset.of_list counts occurrences"
    QCheck.(list (int_range 0 10))
    (fun xs ->
      let ms = Multiset.of_list xs in
      List.for_all
        (fun x -> Multiset.count ms x = List.length (List.filter (( = ) x) xs))
        (List.sort_uniq compare xs))

let prop_multiset_roundtrip =
  QCheck.Test.make ~name:"Multiset to_list/of_list roundtrip (sorted)"
    QCheck.(list (int_range 0 10))
    (fun xs -> Multiset.to_list (Multiset.of_list xs) = List.sort compare xs)

let test_multiset_remove () =
  let ms = Multiset.of_list [ 1; 1; 2 ] in
  (match Multiset.remove ms 1 with
  | Some ms' -> check Alcotest.int "count drops" 1 (Multiset.count ms' 1)
  | None -> Alcotest.fail "remove failed");
  check Alcotest.bool "remove absent" true (Multiset.remove ms 9 = None)

let test_multiset_remove_to_empty () =
  let ms = Multiset.of_list [ 5 ] in
  match Multiset.remove ms 5 with
  | Some ms' ->
      check Alcotest.bool "empty" true (Multiset.is_empty ms');
      check Alcotest.int "support gone" 0 (List.length (Multiset.support ms'))
  | None -> Alcotest.fail "remove failed"

let prop_multiset_leq =
  QCheck.Test.make ~name:"Multiset.leq iff pointwise"
    QCheck.(pair (list (int_range 0 5)) (list (int_range 0 5)))
    (fun (xs, ys) ->
      let a = Multiset.of_list xs and b = Multiset.of_list ys in
      Multiset.leq a b
      = List.for_all (fun x -> Multiset.count a x <= Multiset.count b x) (List.sort_uniq compare xs))

let prop_multiset_union_adds =
  QCheck.Test.make ~name:"Multiset.union adds multiplicities"
    QCheck.(pair (list (int_range 0 5)) (list (int_range 0 5)))
    (fun (xs, ys) ->
      let u = Multiset.union (Multiset.of_list xs) (Multiset.of_list ys) in
      List.for_all
        (fun x ->
          Multiset.count u x
          = List.length (List.filter (( = ) x) xs) + List.length (List.filter (( = ) x) ys))
        (List.sort_uniq compare (xs @ ys)))

let test_multiset_encode_distinct () =
  check Alcotest.bool "encode distinguishes" true
    (Multiset.encode (Multiset.of_list [ 1; 1 ]) <> Multiset.encode (Multiset.of_list [ 1 ]))

let test_multiset_cardinal_distinct () =
  let ms = Multiset.of_list [ 3; 3; 3; 7 ] in
  check Alcotest.int "cardinal" 4 (Multiset.cardinal ms);
  check Alcotest.int "distinct" 2 (Multiset.distinct ms)

let test_multiset_add_times () =
  let ms = Multiset.add ~times:5 Multiset.empty 2 in
  check Alcotest.int "times" 5 (Multiset.count ms 2);
  check Alcotest.bool "times=0 is empty" true (Multiset.is_empty (Multiset.add ~times:0 Multiset.empty 2))

(* ------------------------- Deque ------------------------- *)

let prop_deque_fifo =
  QCheck.Test.make ~name:"Deque push_back/pop_front is a queue"
    QCheck.(list small_int)
    (fun xs ->
      let q = List.fold_left Deque.push_back Deque.empty xs in
      let rec drain q acc =
        match Deque.pop_front q with
        | Some (x, q') -> drain q' (x :: acc)
        | None -> List.rev acc
      in
      drain q [] = xs)

let prop_deque_to_list =
  QCheck.Test.make ~name:"Deque.to_list front-to-back"
    QCheck.(list small_int)
    (fun xs -> Deque.to_list (Deque.of_list xs) = xs)

(* The deque against a list model under random operation sequences:
   after every operation the two agree on [to_list], [length],
   [peek_front], [is_empty] and an order-sensitive [fold], and every
   pop returns the model's head. *)
type deque_op = Push_back of int | Push_front of int | Pop_front

let prop_deque_model =
  QCheck.Test.make ~name:"Deque agrees with a list model" ~count:1000
    QCheck.(
      list_of_size
        Gen.(int_bound 60)
        (make
           ~print:(function
             | Push_back x -> Printf.sprintf "push_back %d" x
             | Push_front x -> Printf.sprintf "push_front %d" x
             | Pop_front -> "pop_front")
           Gen.(
             frequency
               [
                 (3, map (fun x -> Push_back x) small_nat);
                 (1, map (fun x -> Push_front x) small_nat);
                 (3, return Pop_front);
               ])))
    (fun ops ->
      let agrees q model =
        Deque.to_list q = model
        && Deque.length q = List.length model
        && Deque.is_empty q = (model = [])
        && Deque.peek_front q = (match model with x :: _ -> Some x | [] -> None)
        && Deque.fold (fun acc x -> (acc * 31) + x + 1) 7 q
           = List.fold_left (fun acc x -> (acc * 31) + x + 1) 7 model
      in
      let rec run q model = function
        | [] -> true
        | op :: rest -> (
            match op with
            | Push_back x ->
                let q = Deque.push_back q x and model = model @ [ x ] in
                agrees q model && run q model rest
            | Push_front x ->
                let q = Deque.push_front q x and model = x :: model in
                agrees q model && run q model rest
            | Pop_front -> (
                match (Deque.pop_front q, model) with
                | None, [] -> run q model rest
                | Some (x, q), y :: model -> x = y && agrees q model && run q model rest
                | Some _, [] | None, _ :: _ -> false))
      in
      run Deque.empty [] ops)

let test_deque_push_front () =
  let q = Deque.push_front (Deque.of_list [ 2; 3 ]) 1 in
  check (Alcotest.list Alcotest.int) "front insert" [ 1; 2; 3 ] (Deque.to_list q)

let test_deque_length () =
  check Alcotest.int "length" 3 (Deque.length (Deque.of_list [ 1; 2; 3 ]));
  check Alcotest.bool "empty" true (Deque.is_empty Deque.empty)

let test_deque_peek () =
  check (Alcotest.option Alcotest.int) "peek" (Some 9) (Deque.peek_front (Deque.of_list [ 9; 1 ]));
  check (Alcotest.option Alcotest.int) "peek empty" None (Deque.peek_front Deque.empty)

let test_deque_fold () =
  check Alcotest.int "fold order" 123
    (Deque.fold (fun acc x -> (acc * 10) + x) 0 (Deque.of_list [ 1; 2; 3 ]))

(* ------------------------- Json ------------------------- *)

(* The byte-at-a-time parser the in-place cursor replaced, verbatim:
   the reference its values and its error strings (byte offsets
   included) must match on every input. *)
module Reference_json = struct
  exception Fail of int * string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Fail (!pos, msg)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | Some _ | None -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | Some c' -> fail (Printf.sprintf "expected %C, found %C" c c')
      | None -> fail (Printf.sprintf "expected %C, found end of input" c)
    in
    let literal word v =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
        pos := !pos + String.length word;
        v
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let utf8_of_code buf code =
      (* Only the BMP; surrogate pairs in escapes are not emitted by our
         printer and are rejected here. *)
      if code < 0x80 then Buffer.add_char buf (Char.chr code)
      else if code < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
      end
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
            advance ();
            match peek () with
            | Some '"' -> advance (); Buffer.add_char buf '"'; go ()
            | Some '\\' -> advance (); Buffer.add_char buf '\\'; go ()
            | Some '/' -> advance (); Buffer.add_char buf '/'; go ()
            | Some 'n' -> advance (); Buffer.add_char buf '\n'; go ()
            | Some 't' -> advance (); Buffer.add_char buf '\t'; go ()
            | Some 'r' -> advance (); Buffer.add_char buf '\r'; go ()
            | Some 'b' -> advance (); Buffer.add_char buf '\b'; go ()
            | Some 'f' -> advance (); Buffer.add_char buf '\012'; go ()
            | Some 'u' ->
                advance ();
                if !pos + 4 > n then fail "truncated \\u escape";
                let hex = String.sub s !pos 4 in
                let code =
                  match int_of_string_opt ("0x" ^ hex) with
                  | Some c -> c
                  | None -> fail "bad \\u escape"
                in
                if code >= 0xd800 && code <= 0xdfff then fail "surrogate escapes unsupported";
                pos := !pos + 4;
                utf8_of_code buf code;
                go ()
            | Some c -> fail (Printf.sprintf "bad escape \\%C" c)
            | None -> fail "unterminated escape")
        | Some c ->
            advance ();
            Buffer.add_char buf c;
            go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
      in
      while (match peek () with Some c when is_num_char c -> true | Some _ | None -> false) do
        advance ()
      done;
      let tok = String.sub s start (!pos - start) in
      let is_float = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok in
      if is_float then
        match float_of_string_opt tok with
        | Some f -> Json.Float f
        | None -> fail (Printf.sprintf "bad number %S" tok)
      else
        match int_of_string_opt tok with
        | Some i -> Json.Int i
        | None -> (
            match float_of_string_opt tok with
            | Some f -> Json.Float f
            | None -> fail (Printf.sprintf "bad number %S" tok))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some 'n' -> literal "null" Json.Null
      | Some 't' -> literal "true" (Json.Bool true)
      | Some 'f' -> literal "false" (Json.Bool false)
      | Some '"' -> Json.String (parse_string ())
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            Json.List []
          end
          else begin
            let rec items acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  items (v :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (v :: acc)
              | Some c -> fail (Printf.sprintf "expected ',' or ']', found %C" c)
              | None -> fail "unterminated array"
            in
            Json.List (items [])
          end
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Json.Obj []
          end
          else begin
            let field () =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              (k, v)
            in
            let rec fields acc =
              let kv = field () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  fields (kv :: acc)
              | Some '}' ->
                  advance ();
                  List.rev (kv :: acc)
              | Some c -> fail (Printf.sprintf "expected ',' or '}', found %C" c)
              | None -> fail "unterminated object"
            in
            Json.Obj (fields [])
          end
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected character %C" c)
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Fail (at, msg) -> Error (Printf.sprintf "json: at byte %d: %s" at msg)
end

(* Printable values: every constructor, nesting, and strings that need
   each escape the printer emits (quotes, backslashes, control bytes)
   next to plain and non-ASCII ones. *)
let json_gen =
  let open QCheck.Gen in
  let str =
    oneof
      [
        string_size ~gen:(oneofl [ 'a'; 'z'; '0'; ' '; '_' ]) (int_bound 6);
        string_size ~gen:(oneofl [ '"'; '\\'; '\n'; '\t'; '\r'; '\001'; '\031'; '/'; 'x'; '\xc3'; '\xa9' ])
          (int_bound 6);
      ]
  in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) (oneof [ small_signed_int; int; return max_int; return min_int ]);
        map (fun f -> Json.Float f) (oneof [ float; map float_of_int small_signed_int; return 0.1 ]);
        map (fun s -> Json.String s) str;
      ]
  in
  sized_size (int_bound 4)
  @@ fix (fun self n ->
         if n = 0 then scalar
         else
           frequency
             [
               (2, scalar);
               (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (n - 1))));
               (1, map (fun l -> Json.Obj l) (list_size (int_bound 4) (pair str (self (n - 1)))));
             ])

type mutation = Flip of int * char | Insert of int * char | Delete of int | Truncate of int

(* Bytes a mutation writes: the grammar's punctuation and number signs,
   the letters of its literals, escapes and hex digits, digits,
   whitespace, and arbitrary bytes. *)
let mutation_byte =
  QCheck.Gen.(
    oneof
      [
        oneofl [ '{'; '}'; '['; ']'; ','; ':'; '"'; '\\'; '.'; '-'; '+'; 'e'; 'E' ];
        oneofl [ 'u'; 'n'; 't'; 'f'; 'b'; 'r'; '/'; 'l'; 'a'; 'd'; 'F'; '8' ];
        oneofl [ '0'; '1'; '9'; ' '; '\n' ];
        char;
      ])

let mutate text muts =
  List.fold_left
    (fun t m ->
      let len = String.length t in
      let at i = if len = 0 then 0 else i mod len in
      match m with
      | Flip (i, c) when len > 0 -> String.mapi (fun j b -> if j = at i then c else b) t
      | Flip _ -> t
      | Insert (i, c) ->
          let i = if len = 0 then 0 else i mod (len + 1) in
          String.sub t 0 i ^ String.make 1 c ^ String.sub t i (len - i)
      | Delete i when len > 0 ->
          let i = at i in
          String.sub t 0 i ^ String.sub t (i + 1) (len - i - 1)
      | Delete _ -> t
      | Truncate i -> String.sub t 0 (if len = 0 then 0 else i mod (len + 1)))
    text muts

let mutation_gen =
  QCheck.Gen.(
    let pos = int_bound 10_000 in
    frequency
      [
        (3, map2 (fun i c -> Flip (i, c)) pos mutation_byte);
        (3, map2 (fun i c -> Insert (i, c)) pos mutation_byte);
        (2, map (fun i -> Delete i) pos);
        (1, map (fun i -> Truncate i) pos);
      ])

let prop_json_parse_matches_reference =
  QCheck.Test.make ~name:"Json.parse agrees with the reference on mutated text" ~count:20_000
    QCheck.(
      make
        ~print:(fun (v, muts) -> String.escaped (mutate (Json.to_string v) muts))
        Gen.(pair json_gen (list_size (int_bound 4) mutation_gen)))
    (fun (v, muts) ->
      let text = mutate (Json.to_string v) muts in
      match (Json.parse text, Reference_json.parse text) with
      | Ok a, Ok b -> Json.equal a b
      | Error a, Error b -> String.equal a b
      | Ok _, Error _ | Error _, Ok _ -> false
      | exception e -> QCheck.Test.fail_reportf "Json.parse raised %s" (Printexc.to_string e))

let prop_json_roundtrip =
  QCheck.Test.make ~name:"Json.parse inverts Json.to_string" ~count:1000 (QCheck.make json_gen)
    (fun v -> match Json.parse (Json.to_string v) with Ok v' -> Json.equal v v' | Error _ -> false)

(* The printer before it indented from one shared run of spaces and
   copied escape-free runs whole, verbatim: the reference its bytes
   must match. *)
module Reference_printer = struct
  let escape buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let float_repr f =
    let try_prec p =
      let s = Printf.sprintf "%.*g" p f in
      if float_of_string s = f then Some s else None
    in
    let s =
      match try_prec 12 with
      | Some s -> s
      | None -> ( match try_prec 15 with Some s -> s | None -> Printf.sprintf "%.17g" f)
    in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E' || c = 'n') s then s else s ^ ".0"

  let rec write buf ~indent v =
    let pad n = String.make n ' ' in
    match v with
    | Json.Null -> Buffer.add_string buf "null"
    | Json.Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Json.Int n -> Buffer.add_string buf (string_of_int n)
    | Json.Float f ->
        if Float.is_finite f then Buffer.add_string buf (float_repr f)
        else Buffer.add_string buf "null"
    | Json.String s -> escape buf s
    | Json.List [] -> Buffer.add_string buf "[]"
    | Json.List items ->
        Buffer.add_string buf "[";
        List.iteri
          (fun i item ->
            Buffer.add_string buf (if i = 0 then "\n" else ",\n");
            Buffer.add_string buf (pad (indent + 2));
            write buf ~indent:(indent + 2) item)
          items;
        Buffer.add_char buf '\n';
        Buffer.add_string buf (pad indent);
        Buffer.add_char buf ']'
    | Json.Obj [] -> Buffer.add_string buf "{}"
    | Json.Obj fields ->
        Buffer.add_string buf "{";
        List.iteri
          (fun i (k, item) ->
            Buffer.add_string buf (if i = 0 then "\n" else ",\n");
            Buffer.add_string buf (pad (indent + 2));
            escape buf k;
            Buffer.add_string buf ": ";
            write buf ~indent:(indent + 2) item)
          fields;
        Buffer.add_char buf '\n';
        Buffer.add_string buf (pad indent);
        Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 256 in
    write buf ~indent:0 v;
    Buffer.contents buf
end

(* Nesting 40 deep indents 80 columns, past the printer's shared run
   of spaces, and the strings hold every byte value — each escape the
   printer writes, runs between escapes, and escapes at both ends. *)
let test_json_printer_matches_reference () =
  let every_byte = String.init 256 Char.chr in
  let strings =
    [
      "";
      every_byte;
      "\"\\\n\r\t\000\031";
      "plain run";
      "\"quoted\"";
      "a\tb\nc\\d\001e";
      "caf\xc3\xa9 \x7f";
    ]
  in
  let leaves = List.map (fun s -> Json.String s) strings @ [ Json.Int (-3); Json.Float 0.5; Json.Null ] in
  let rec nest k v =
    if k = 0 then v
    else
      nest (k - 1)
        (if k mod 2 = 0 then Json.List [ Json.Bool true; v; Json.List [] ]
         else Json.Obj [ (every_byte, v); ("k", Json.Obj []) ])
  in
  List.iter
    (fun v ->
      check Alcotest.string "same bytes" (Reference_printer.to_string v) (Json.to_string v))
    (Json.List leaves :: List.map (nest 40) leaves)

let prop_json_printer_matches_reference =
  QCheck.Test.make ~name:"Json.to_string agrees with the reference printer" ~count:1000
    (QCheck.make json_gen) (fun v -> String.equal (Json.to_string v) (Reference_printer.to_string v))

(* ------------------------- Stats ------------------------- *)

let test_stats_summary () =
  match Stats.summarize [ 1.0; 2.0; 3.0; 4.0 ] with
  | None -> Alcotest.fail "summarize failed"
  | Some s ->
      check (Alcotest.float 1e-9) "mean" 2.5 s.Stats.mean;
      check (Alcotest.float 1e-9) "min" 1.0 s.Stats.min;
      check (Alcotest.float 1e-9) "max" 4.0 s.Stats.max;
      check (Alcotest.float 1e-9) "p50" 2.5 s.Stats.p50;
      check Alcotest.int "n" 4 s.Stats.n

let test_stats_empty () = check Alcotest.bool "empty" true (Stats.summarize [] = None)

let test_stats_single () =
  match Stats.summarize [ 7.0 ] with
  | Some s ->
      check (Alcotest.float 1e-9) "mean" 7.0 s.Stats.mean;
      check (Alcotest.float 1e-9) "sd" 0.0 s.Stats.stddev
  | None -> Alcotest.fail "single failed"

let test_stats_percentile () =
  let sorted = [| 10.0; 20.0; 30.0 |] in
  check (Alcotest.float 1e-9) "p0" 10.0 (Stats.percentile sorted 0.0);
  check (Alcotest.float 1e-9) "p100" 30.0 (Stats.percentile sorted 1.0);
  check (Alcotest.float 1e-9) "p50" 20.0 (Stats.percentile sorted 0.5);
  check (Alcotest.float 1e-9) "p25 interpolates" 15.0 (Stats.percentile sorted 0.25)

let test_stats_histogram () =
  let h = Stats.histogram ~buckets:2 [ 0.0; 1.0; 2.0; 3.0 ] in
  check Alcotest.int "buckets" 2 (List.length h);
  let total = List.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  check Alcotest.int "total count" 4 total

let prop_stats_mean_bounds =
  QCheck.Test.make ~name:"mean between min and max"
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-1000.0) 1000.0))
    (fun xs ->
      let m = Stats.mean xs in
      let lo = List.fold_left Float.min infinity xs in
      let hi = List.fold_left Float.max neg_infinity xs in
      m >= lo -. 1e-9 && m <= hi +. 1e-9)

(* ------------------------- Codec ------------------------- *)

let test_codec_varint_known () =
  (* One-byte zigzag range and the extremes. *)
  List.iter
    (fun n ->
      let c = Codec.create ~size:1 () in
      Codec.add_varint c n;
      let v, off = Codec.varint_at (Codec.contents c) 0 in
      check Alcotest.int (Printf.sprintf "varint %d" n) n v;
      check Alcotest.int "consumed whole encoding" (Codec.length c) off)
    [ 0; -1; 1; -64; 63; -65; 64; 1000; -1000; max_int; min_int ]

let test_codec_varint_width () =
  let width n =
    let c = Codec.create () in
    Codec.add_varint c n;
    Codec.length c
  in
  check Alcotest.int "0 is one byte" 1 (width 0);
  check Alcotest.int "63 is one byte" 1 (width 63);
  check Alcotest.int "-64 is one byte" 1 (width (-64));
  check Alcotest.int "64 is two bytes" 2 (width 64)

let test_codec_blob_mixed () =
  let c = Codec.create ~size:1 () in
  Codec.add_varint c 7;
  Codec.add_blob c "hello";
  Codec.add_blob c "";
  Codec.add_varint c (-3);
  let s = Codec.contents c in
  let v1, off = Codec.varint_at s 0 in
  let b1, off = Codec.blob_at s off in
  let b2, off = Codec.blob_at s off in
  let v2, off = Codec.varint_at s off in
  check Alcotest.int "leading varint" 7 v1;
  check Alcotest.string "blob" "hello" b1;
  check Alcotest.string "empty blob" "" b2;
  check Alcotest.int "trailing varint" (-3) v2;
  check Alcotest.int "stream fully consumed" (String.length s) off

let test_codec_reset () =
  let c = Codec.create ~size:1 () in
  Codec.add_blob c "some bytes";
  Codec.reset c;
  check Alcotest.int "reset clears length" 0 (Codec.length c);
  check Alcotest.string "reset clears contents" "" (Codec.contents c);
  Codec.add_varint c 5;
  check Alcotest.(pair int int) "writes restart at 0" (5, 1)
    (Codec.varint_at (Codec.contents c) 0)

let test_codec_truncation () =
  let c = Codec.create () in
  Codec.add_varint c 1_000_000;
  let s = Codec.contents c in
  Alcotest.check_raises "truncated varint"
    (Invalid_argument "Codec.varint_at: truncated varint") (fun () ->
      ignore (Codec.varint_at (String.sub s 0 (String.length s - 1)) 0));
  let c = Codec.create () in
  Codec.add_blob c "abcdef";
  let s = Codec.contents c in
  Alcotest.check_raises "truncated blob" (Invalid_argument "Codec.blob_at: truncated blob")
    (fun () -> ignore (Codec.blob_at (String.sub s 0 3) 0))

let prop_codec_varint_roundtrip =
  QCheck.Test.make ~name:"Codec varint sequences round-trip"
    QCheck.(small_list int)
    (fun ns ->
      let c = Codec.create ~size:1 () in
      List.iter (Codec.add_varint c) ns;
      let s = Codec.contents c in
      let decoded, off =
        List.fold_left
          (fun (acc, off) _ ->
            let v, off = Codec.varint_at s off in
            (v :: acc, off))
          ([], 0) ns
      in
      List.rev decoded = ns && off = String.length s)

let prop_codec_blob_roundtrip =
  QCheck.Test.make ~name:"Codec blob sequences round-trip"
    QCheck.(small_list small_string)
    (fun ss ->
      let c = Codec.create ~size:1 () in
      List.iter (Codec.add_blob c) ss;
      let s = Codec.contents c in
      let decoded, off =
        List.fold_left
          (fun (acc, off) _ ->
            let b, off = Codec.blob_at s off in
            (b :: acc, off))
          ([], 0) ss
      in
      List.rev decoded = ss && off = String.length s)

(* Emitting a component sequence and interning the buffer in place
   must agree exactly with interning the copied-out string — the
   engines rely on [intern_bytes] never seeing different bytes than
   [contents] would produce. *)
let prop_codec_intern_bytes_agrees =
  QCheck.Test.make ~name:"Intern.intern_bytes agrees with intern on codec contents"
    QCheck.(small_list (small_list small_string))
    (fun states ->
      let by_string = Intern.create () and by_bytes = Intern.create () in
      let c = Codec.create ~size:1 () in
      List.for_all
        (fun components ->
          Codec.reset c;
          List.iter (Codec.add_blob c) components;
          let id_s, fresh_s = Intern.intern by_string (Codec.contents c) in
          let id_b, fresh_b =
            Intern.intern_bytes by_bytes (Codec.buffer c) ~pos:0 ~len:(Codec.length c)
          in
          id_s = id_b && fresh_s = fresh_b)
        states
      && Intern.length by_string = Intern.length by_bytes)

let test_intern_bytes_slice () =
  let t = Intern.create () in
  let b = Bytes.of_string "xxhelloyy" in
  let id, fresh = Intern.intern_bytes t b ~pos:2 ~len:5 in
  check Alcotest.(pair int bool) "slice interned fresh" (0, true) (id, fresh);
  check Alcotest.(pair int bool) "same slice via string" (0, false) (Intern.intern t "hello");
  check Alcotest.string "name is the slice" "hello" (Intern.name t 0)

(* ------------------------- Intern ------------------------- *)

let test_intern_ids_dense () =
  let t = Intern.create () in
  check Alcotest.int "first id" 0 (Intern.id t "a");
  check Alcotest.int "second id" 1 (Intern.id t "b");
  check Alcotest.int "repeat is stable" 0 (Intern.id t "a");
  check Alcotest.int "third id" 2 (Intern.id t "c");
  check Alcotest.int "length" 3 (Intern.length t)

let test_intern_fresh_flag () =
  let t = Intern.create () in
  check Alcotest.(pair int bool) "first sight" (0, true) (Intern.intern t "x");
  check Alcotest.(pair int bool) "second sight" (0, false) (Intern.intern t "x");
  check Alcotest.(pair int bool) "new string" (1, true) (Intern.intern t "y")

let test_intern_roundtrip () =
  let t = Intern.create ~size:2 () in
  (* Push past the initial names capacity to exercise growth. *)
  let strs = List.init 200 (fun i -> Printf.sprintf "s%d" i) in
  let ids = List.map (Intern.id t) strs in
  List.iter2 (fun s i -> check Alcotest.string "name round-trip" s (Intern.name t i)) strs ids;
  check Alcotest.(option int) "find_opt hit" (Some 7) (Intern.find_opt t "s7");
  check Alcotest.(option int) "find_opt miss" None (Intern.find_opt t "absent");
  Alcotest.check_raises "bad id" (Invalid_argument "Intern.name: id 200 not allocated")
    (fun () -> ignore (Intern.name t 200))

let prop_intern_bijective =
  QCheck.Test.make ~name:"interning is a bijection on distinct strings"
    QCheck.(small_list small_string)
    (fun ss ->
      let t = Intern.create () in
      let ids = List.map (Intern.id t) ss in
      List.for_all2 (fun s i -> Intern.name t i = s) ss ids
      && Intern.length t = List.length (List.sort_uniq String.compare ss))

(* A cleared table, whatever it held and however far it grew, interns
   like a fresh one: the same ids and freshness, and nothing from
   before it was cleared. *)
let prop_intern_clear_is_fresh =
  QCheck.Test.make ~name:"a cleared table interns like a fresh one"
    QCheck.(pair (list small_string) (small_list small_string))
    (fun (before, after) ->
      let t = Intern.create ~size:2 () in
      List.iter (fun s -> ignore (Intern.intern t s)) before;
      Intern.clear t;
      let fresh = Intern.create () in
      Intern.length t = 0
      && List.for_all (fun s -> Intern.find_opt t s = None) before
      && List.for_all (fun s -> Intern.intern t s = Intern.intern fresh s) after
      && List.for_all (fun s -> Intern.find_opt t s = Intern.find_opt fresh s) (before @ after))

(* The probe hashes and compares a word at a time and the tail bytes
   singly, so keys here are mostly at least a word long, and most are
   near-duplicates of a few bases: one byte changed anywhere, in the
   last word, or in the tail past the last whole word, sometimes only
   in its top bit.  Each key is interned from inside a larger buffer at
   an unaligned offset, with filler around it that changes per key;
   ids, fresh flags and names must agree with a Hashtbl-of-strings
   reference. *)
let intern_script_gen =
  let open QCheck.Gen in
  let key =
    frequency [ (1, int_bound 7); (4, int_range 8 80) ] >>= fun n ->
    string_size ~gen:(oneofl [ '\000'; '\001'; 'a'; '\128'; '\255' ]) (return n)
  in
  let edit s =
    let n = String.length s in
    if n = 0 then return s
    else
      oneof
        [
          int_bound (n - 1);
          int_range (max 0 (n - 8)) (n - 1);
          int_range (min (n - 1) (n land lnot 7)) (n - 1);
        ]
      >>= fun i ->
      oneof [ map Char.chr (int_bound 255); return (Char.chr (Char.code s.[i] lxor 0x80)) ]
      >|= fun c -> String.mapi (fun j x -> if j = i then c else x) s
  in
  list_size (int_range 1 6) key >>= fun bases ->
  let base = oneofl bases in
  list_size (int_range 0 60) (frequency [ (1, key); (2, base); (4, base >>= edit) ]) >>= fun more ->
  let keys = bases @ more in
  list_repeat (List.length keys) (int_range 1 15) >|= fun offsets -> (keys, offsets)

let prop_intern_near_duplicates =
  QCheck.Test.make ~count:300 ~name:"Intern agrees with a Hashtbl on near-duplicate keys"
    (QCheck.make ~print:QCheck.Print.(pair (list string) (list int)) intern_script_gen)
    (fun (keys, offsets) ->
      let t = Intern.create ~size:16 () and reference = Hashtbl.create 16 in
      let probe i key pos =
        let len = String.length key in
        let b = Bytes.make (pos + len + 9) (Char.chr ((i * 37) land 0xff)) in
        Bytes.blit_string key 0 b pos len;
        let expected =
          match Hashtbl.find_opt reference key with
          | Some id -> (id, false)
          | None ->
              let id = Hashtbl.length reference in
              Hashtbl.add reference key id;
              (id, true)
        in
        Intern.intern_bytes t b ~pos ~len = expected && Intern.name t (fst expected) = key
      in
      List.for_all2 (fun (i, key) pos -> probe i key pos) (List.mapi (fun i k -> (i, k)) keys) offsets
      && Intern.length t = Hashtbl.length reference
      && Hashtbl.fold
           (fun key id ok -> ok && Intern.name t id = key && Intern.find_opt t key = Some id)
           reference true)

(* ------------------------- Frontier ------------------------- *)

(* An op list drives both a spilled frontier (tiny chunks, one-chunk
   budget: every rotation pages through the spill file) and an
   unbounded in-memory one; negative ops pop, non-negative ops push.
   The pager must be invisible: identical pop sequences, identical
   lengths, for arbitrary interleavings. *)
let prop_frontier_spill_transparent =
  QCheck.Test.make ~count:300 ~name:"frontier: spilled = unbounded pop sequence"
    QCheck.(list (int_range (-1) 1_000_000))
    (fun ops ->
      let spilled = Frontier.create ~chunk_bytes:32 ~mem_budget_bytes:1 () in
      let unbounded = Frontier.create () in
      let interp f =
        let popped = ref [] in
        List.iter
          (fun op ->
            if op < 0 then begin
              if not (Frontier.is_empty f) then popped := Frontier.pop f :: !popped
            end
            else Frontier.push f op)
          ops;
        (* Drain what remains so the law covers the tail too. *)
        while not (Frontier.is_empty f) do
          popped := Frontier.pop f :: !popped
        done;
        List.rev !popped
      in
      let a = interp spilled and b = interp unbounded in
      Frontier.close spilled;
      Frontier.close unbounded;
      a = b)

let test_frontier_spill_stats () =
  let f = Frontier.create ~chunk_bytes:32 ~mem_budget_bytes:1 () in
  for i = 0 to 999 do
    Frontier.push f (i * 1000)
  done;
  let s = Frontier.stats f in
  check Alcotest.bool "chunks spilled" true (s.Frontier.spill_chunks > 0);
  check Alcotest.bool "bytes spilled" true (s.Frontier.spilled_bytes > 0);
  check Alcotest.bool "resident bounded" true
    (s.Frontier.peak_resident_bytes <= 2 * (32 + 16));
  check Alcotest.int "peak ids" 1000 s.Frontier.peak_len;
  for i = 0 to 999 do
    check Alcotest.int "fifo through spill" (i * 1000) (Frontier.pop f)
  done;
  check Alcotest.bool "drained" true (Frontier.is_empty f);
  (* clear rewinds the spill write offset; the pool keeps working. *)
  Frontier.push f 7;
  Frontier.clear f;
  check Alcotest.bool "cleared" true (Frontier.is_empty f);
  Frontier.push f 9;
  check Alcotest.int "usable after clear" 9 (Frontier.pop f);
  Frontier.close f;
  Frontier.close f (* idempotent *)

let test_frontier_unbounded_never_spills () =
  let f = Frontier.create ~chunk_bytes:32 () in
  for i = 0 to 999 do
    Frontier.push f i
  done;
  let s = Frontier.stats f in
  check Alcotest.int "no spill without budget" 0 s.Frontier.spill_chunks;
  check Alcotest.bool "bytes tracked" true (s.Frontier.peak_bytes > 0);
  Frontier.close f

(* ------------------------- Clock ------------------------- *)

(* Two domains busy for 0.6 s of wall time burn about 1.2 s of CPU time
   on a two-core host: a guard reading CPU time would fire inside this
   1 s budget, the wall-clock guard must not. *)
let test_clock_deadline_is_wall_time () =
  let budget = 1.0 in
  let over = Stdx.Clock.deadline (Some budget) in
  let t0 = Unix.gettimeofday () in
  let spin () =
    while Unix.gettimeofday () -. t0 < 0.6 *. budget do
      ()
    done
  in
  let other = Domain.spawn spin in
  spin ();
  let fired = over () in
  Domain.join other;
  check Alcotest.bool "two busy domains, 0.6 s into a 1 s budget" false fired;
  check Alcotest.bool "a zero budget fires at once" true (Stdx.Clock.deadline (Some 0.0) ());
  check Alcotest.bool "no budget never fires" false (Stdx.Clock.deadline None ())

let () =
  Alcotest.run "stdx"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy replays" `Quick test_rng_copy_replays;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "split pure in parent" `Quick test_rng_split_pure;
          Alcotest.test_case "bool both values" `Quick test_rng_bool_both_values;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          qtest prop_rng_split_prefixes_disjoint;
          qtest prop_rng_int_range;
          qtest prop_rng_shuffle_permutes;
        ] );
      ( "bignat",
        [
          Alcotest.test_case "factorial known values" `Quick test_bignat_factorial;
          Alcotest.test_case "overflow detection" `Quick test_bignat_overflow_detection;
          Alcotest.test_case "zero and one" `Quick test_bignat_zero_one;
          Alcotest.test_case "mul_int carry" `Quick test_bignat_mul_int_carry;
          qtest prop_bignat_int_roundtrip;
          qtest prop_bignat_add_matches_int;
          qtest prop_bignat_mul_matches_int;
          qtest prop_bignat_divmod;
          qtest prop_bignat_compare_total;
        ] );
      ( "multiset",
        [
          Alcotest.test_case "remove" `Quick test_multiset_remove;
          Alcotest.test_case "remove to empty" `Quick test_multiset_remove_to_empty;
          Alcotest.test_case "encode distinct" `Quick test_multiset_encode_distinct;
          Alcotest.test_case "cardinal/distinct" `Quick test_multiset_cardinal_distinct;
          Alcotest.test_case "add ~times" `Quick test_multiset_add_times;
          qtest prop_multiset_counts;
          qtest prop_multiset_roundtrip;
          qtest prop_multiset_leq;
          qtest prop_multiset_union_adds;
        ] );
      ( "deque",
        [
          Alcotest.test_case "push_front" `Quick test_deque_push_front;
          Alcotest.test_case "length/empty" `Quick test_deque_length;
          Alcotest.test_case "peek" `Quick test_deque_peek;
          Alcotest.test_case "fold order" `Quick test_deque_fold;
          qtest prop_deque_fifo;
          qtest prop_deque_to_list;
          qtest prop_deque_model;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "single" `Quick test_stats_single;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          qtest prop_stats_mean_bounds;
        ] );
      ( "codec",
        [
          Alcotest.test_case "varint known values" `Quick test_codec_varint_known;
          Alcotest.test_case "varint widths" `Quick test_codec_varint_width;
          Alcotest.test_case "mixed blob/varint stream" `Quick test_codec_blob_mixed;
          Alcotest.test_case "reset" `Quick test_codec_reset;
          Alcotest.test_case "truncation errors" `Quick test_codec_truncation;
          qtest prop_codec_varint_roundtrip;
          qtest prop_codec_blob_roundtrip;
        ] );
      ( "intern",
        [
          Alcotest.test_case "dense stable ids" `Quick test_intern_ids_dense;
          Alcotest.test_case "fresh flag" `Quick test_intern_fresh_flag;
          Alcotest.test_case "round-trip and growth" `Quick test_intern_roundtrip;
          Alcotest.test_case "intern_bytes slice" `Quick test_intern_bytes_slice;
          qtest prop_intern_bijective;
          qtest prop_intern_near_duplicates;
          qtest prop_codec_intern_bytes_agrees;
          qtest prop_intern_clear_is_fresh;
        ] );
      ( "frontier",
        [
          Alcotest.test_case "spill stats and fifo" `Quick test_frontier_spill_stats;
          Alcotest.test_case "no budget, no spill" `Quick
            test_frontier_unbounded_never_spills;
          qtest prop_frontier_spill_transparent;
        ] );
      ( "json",
        [
          qtest prop_json_roundtrip;
          qtest prop_json_parse_matches_reference;
          Alcotest.test_case "printer matches the reference" `Quick
            test_json_printer_matches_reference;
          qtest prop_json_printer_matches_reference;
        ] );
      ( "clock",
        [ Alcotest.test_case "deadline reads wall time" `Quick test_clock_deadline_is_wall_time ] );
    ]
