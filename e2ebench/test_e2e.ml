(* Tests for the benchmark's own helpers: the percentile rule, span self
   time, and the serve-loop batch generator. *)

let float_eq = Alcotest.float 1e-9
let ints n = List.init n (fun i -> float_of_int (i + 1))

let test_median () =
  Alcotest.check float_eq "odd" 3.0 (Stat.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.check float_eq "even" 2.5 (Stat.median [ 4.0; 1.0; 3.0; 2.0 ])

let test_tail_p90 () =
  let t = Stat.tail (ints 100) in
  Alcotest.check float_eq "p90 of 100" 90.0 t.Stat.pct;
  Alcotest.check float_eq "value" 90.0 t.Stat.value;
  Alcotest.(check int) "sample count" 100 t.Stat.n;
  let t = Stat.tail (List.rev (ints 1000)) in
  Alcotest.check float_eq "p90 of 1000" 90.0 t.Stat.pct;
  Alcotest.check float_eq "value of 1000" 900.0 t.Stat.value

let test_tail_few () =
  let t = Stat.tail (ints 50) in
  Alcotest.check float_eq "50 samples: p80 leaves ten above" 80.0 t.Stat.pct;
  Alcotest.check float_eq "value" 40.0 t.Stat.value;
  let t = Stat.tail (ints 15) in
  Alcotest.check float_eq "15 samples: the nearest-rank median" 8.0 t.Stat.value;
  Alcotest.(check int) "sample count" 15 t.Stat.n;
  Alcotest.check float_eq "one sample" 7.0 (Stat.tail [ 7.0 ]).Stat.value

let test_tail_rule () =
  for n = 21 to 400 do
    let t = Stat.tail (ints n) in
    let above = List.length (List.filter (fun x -> x > t.Stat.value) (ints n)) in
    if above < 10 || t.Stat.pct > 90.0 then
      Alcotest.failf "n=%d: p%.1f leaves %d samples above" n t.Stat.pct above;
    (* the highest such percentile: one rank up, or p90 already *)
    if t.Stat.pct < 90.0 && above > 10 then Alcotest.failf "n=%d: p%.1f is not the highest" n t.Stat.pct
  done

let self = Spans.self_time ~start:0.0 ~stop:10.0

let test_self_time () =
  Alcotest.check float_eq "no children" 10.0 (self []);
  Alcotest.check float_eq "disjoint" 7.0 (self [ (1.0, 3.0); (5.0, 6.0) ]);
  Alcotest.check float_eq "overlapping" 3.0 (self [ (3.0, 8.0); (1.0, 5.0) ]);
  Alcotest.check float_eq "contained" 3.0 (self [ (1.0, 8.0); (2.0, 3.0) ]);
  Alcotest.check float_eq "clipped to the parent" 7.0 (self [ (-5.0, 2.0); (9.0, 20.0) ]);
  Alcotest.check float_eq "covered twice over" 0.0 (self [ (0.0, 10.0); (0.0, 10.0) ])

let test_recorder () =
  let t = Spans.create () in
  Spans.set_op t 7;
  Spans.record t "outer" (fun () ->
      Spans.record t "a" ignore;
      Spans.record t "b" (fun () -> Spans.record t "c" ignore));
  let by_name n = List.hd (Spans.named t n) in
  let outer = by_name "outer" in
  Alcotest.(check int) "root" (-1) outer.Spans.parent;
  Alcotest.(check int) "child" outer.Spans.id (by_name "a").Spans.parent;
  Alcotest.(check int) "grandchild" (by_name "b").Spans.id (by_name "c").Spans.parent;
  Alcotest.(check int) "op id" 7 (by_name "c").Spans.op;
  Alcotest.(check bool) "self within duration" true
    (List.for_all
       (fun (s, self) -> self >= 0.0 && self <= Spans.duration s)
       (Spans.self_times t "outer"));
  Alcotest.(check bool) "spans close on an exception" true
    (match Spans.record t "raises" (fun () -> failwith "x") with
    | () -> false
    | exception Failure _ -> List.length (Spans.named t "raises") = 1)

let test_batch_deterministic () =
  Alcotest.(check string) "same seed, same bytes" (Gen.batch ~seed:3 ~index:1)
    (Gen.batch ~seed:3 ~index:1);
  Alcotest.(check bool) "another index" false
    (String.equal (Gen.batch ~seed:3 ~index:1) (Gen.batch ~seed:3 ~index:2));
  Alcotest.(check bool) "another seed" false
    (String.equal (Gen.batch ~seed:3 ~index:1) (Gen.batch ~seed:4 ~index:1))

let test_batch_resolves () =
  List.iter
    (fun (seed, index) ->
      match Stdx.Json.parse (Gen.batch ~seed ~index) with
      | Error e -> Alcotest.failf "seed %d batch %d: %s" seed index e
      | Ok j -> (
          match Serve.batch_of_json j with
          | Error e -> Alcotest.failf "seed %d batch %d: %s" seed index e
          | Ok jobs ->
              Alcotest.(check int) "jobs per batch" Gen.jobs_per_batch (List.length jobs)))
    (List.concat_map (fun seed -> List.init 4 (fun index -> (seed, index))) [ 1; 2; 3; 42; 1000 ])

let () =
  Alcotest.run "e2ebench"
    [
      ( "percentiles",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "p90 with 100 or more samples" `Quick test_tail_p90;
          Alcotest.test_case "fewer samples" `Quick test_tail_few;
          Alcotest.test_case "ten samples above the tail" `Quick test_tail_rule;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time over overlapping children" `Quick test_self_time;
          Alcotest.test_case "recorder parents and op ids" `Quick test_recorder;
        ] );
      ( "batch generator",
        [
          Alcotest.test_case "same seed, same bytes" `Quick test_batch_deterministic;
          Alcotest.test_case "every job resolves" `Quick test_batch_resolves;
        ] );
    ]
