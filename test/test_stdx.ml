(* Unit and property tests for the stdx utility library. *)

module Rng = Stdx.Rng
module Bignat = Stdx.Bignat
module Multiset = Stdx.Multiset
module Deque = Stdx.Deque
module Stats = Stdx.Stats
module Intern = Stdx.Intern
module Codec = Stdx.Codec
module Frontier = Stdx.Frontier

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

let test_rng_pick_weighted () =
  let rng = Rng.create 9 in
  (* Zero-weight choices must never be picked. *)
  for _ = 1 to 200 do
    check Alcotest.string "never zero-weight" "a"
      (Rng.pick_weighted rng [ ("a", 5); ("b", 0) ])
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
          Alcotest.test_case "pick_weighted zero weight" `Quick test_rng_pick_weighted;
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
        ] );
      ( "frontier",
        [
          Alcotest.test_case "spill stats and fifo" `Quick test_frontier_spill_stats;
          Alcotest.test_case "no budget, no spill" `Quick
            test_frontier_unbounded_never_spills;
          qtest prop_frontier_spill_transparent;
        ] );
      ( "clock",
        [ Alcotest.test_case "deadline reads wall time" `Quick test_clock_deadline_is_wall_time ] );
    ]
