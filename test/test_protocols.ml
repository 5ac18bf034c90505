(* Tests for every protocol in the zoo: positive correctness on the
   channel each targets, plus the designed-in failure modes. *)

module Chan = Channel.Chan
module Strategy = Kernel.Strategy
module Runner = Kernel.Runner
module Trace = Kernel.Trace
module Xset = Seqspace.Xset

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let seeds = [ 1; 2; 3; 4; 5 ]

let run_ok ?(max_steps = 20_000) p input strategy seed =
  let r =
    Runner.run p ~input:(Array.of_list input) ~strategy ~rng:(Stdx.Rng.create seed) ~max_steps
      ()
  in
  let trace = r.Runner.trace in
  (Trace.first_safety_violation trace = None, Trace.completed_at trace <> None, trace)

let assert_good ?max_steps p input strategy =
  List.iter
    (fun seed ->
      let safe, complete, trace = run_ok ?max_steps p input strategy seed in
      if not safe then
        Alcotest.failf "%s seed %d: unsafe (%a)" (Trace.protocol_name trace) seed
          Trace.pp_summary trace;
      if not complete then
        Alcotest.failf "%s seed %d: incomplete (%a)" (Trace.protocol_name trace) seed
          Trace.pp_summary trace)
    seeds

(* ------------------------- trivial ------------------------- *)

let test_trivial_perfect () =
  assert_good (Protocols.Trivial.protocol ~domain:4) [ 3; 1; 1; 0; 2 ] Strategy.round_robin

let test_trivial_empty_input () =
  assert_good (Protocols.Trivial.protocol ~domain:2) [] (Strategy.fair_random ())

(* ------------------------- norep (the paper's protocol) ------------------------- *)

let test_norep_dup_all_sequences_m3 () =
  let p = Protocols.Norep.dup ~m:3 in
  List.iter
    (fun input ->
      assert_good p input (Strategy.fair_random ());
      assert_good p input Strategy.round_robin;
      assert_good p input (Strategy.dup_flood ()))
    (Seqspace.Norep.enumerate ~m:3)

let test_norep_del_all_sequences_m3 () =
  let p = Protocols.Norep.del ~m:3 in
  List.iter
    (fun input ->
      assert_good p input (Strategy.fair_random ());
      assert_good p input (Strategy.drop_first 3 (Strategy.fair_random ())))
    (Seqspace.Norep.enumerate ~m:3)

let test_norep_message_economy () =
  (* On a benign schedule the protocol needs ~1 data message + 1 ack
     per item: check it does not spam wildly on round-robin. *)
  let p = Protocols.Norep.dup ~m:4 in
  let _, _, trace = run_ok p [ 0; 1; 2; 3 ] Strategy.round_robin 1 in
  check Alcotest.bool "bounded traffic" true (Trace.messages_sent trace <= 40)

let prop_norep_dup_random_inputs =
  QCheck.Test.make ~name:"norep-dup transmits random norep sequences (m=5)" ~count:30
    QCheck.(pair small_int (int_range 0 5))
    (fun (seed, len) ->
      let input = Seqspace.Norep.random (Stdx.Rng.create (seed + 1000)) ~m:5 ~len in
      let safe, complete, _ =
        run_ok (Protocols.Norep.dup ~m:5) input (Strategy.fair_random ()) seed
      in
      safe && complete)

let prop_norep_del_random_inputs =
  QCheck.Test.make ~name:"norep-del survives bounded deletion (m=5)" ~count:30
    QCheck.(pair small_int (int_range 0 5))
    (fun (seed, len) ->
      let input = Seqspace.Norep.random (Stdx.Rng.create (seed + 2000)) ~m:5 ~len in
      let safe, complete, _ =
        run_ok (Protocols.Norep.del ~m:5) input
          (Strategy.drop_first 4 (Strategy.fair_random ()))
          seed
      in
      safe && complete)

(* ------------------------- abp ------------------------- *)

let test_abp_fifo_lossy () =
  let p = Protocols.Abp.protocol ~domain:3 in
  assert_good p [ 0; 0; 1; 2; 2; 1 ] (Strategy.drop_rate 0.2 (Strategy.fair_random ()));
  assert_good p [ 1; 1; 1; 1 ] (Strategy.drop_rate 0.3 (Strategy.fair_random ()))

let test_abp_handles_repeats () =
  (* The whole point of the bit: consecutive equal items. *)
  assert_good (Protocols.Abp.protocol ~domain:2) [ 0; 0; 0; 0; 0 ] (Strategy.fair_random ())

let test_abp_encode_decode () =
  let m = Protocols.Abp.encode_msg ~domain:5 ~bit:1 ~data:3 in
  check (Alcotest.pair Alcotest.int Alcotest.int) "roundtrip" (1, 3)
    (Protocols.Abp.decode_msg ~domain:5 m)

(* ------------------------- stenning ------------------------- *)

let test_stenning_del () =
  let p = Protocols.Stenning.protocol ~domain:3 ~max_len:6 in
  assert_good p [ 0; 0; 2; 1; 1; 2 ] (Strategy.drop_rate 0.2 (Strategy.fair_random ()));
  assert_good p [ 2 ] (Strategy.fair_random ())

let test_stenning_dup () =
  (* Full headers survive duplication too. *)
  let p = Protocols.Stenning.protocol_on Chan.Reorder_dup ~domain:2 ~max_len:4 in
  assert_good p [ 1; 1; 0; 0 ] (Strategy.dup_flood ())

let test_stenning_mod_ok_within_window () =
  (* With enough headers for the input length it still works on a FIFO
     lossy channel. *)
  let p = Protocols.Stenning_mod.protocol_on Chan.Fifo_lossy ~domain:2 ~header_space:8 in
  assert_good p [ 0; 1; 1; 0 ] (Strategy.drop_rate 0.2 (Strategy.fair_random ()))

(* ------------------------- counting ------------------------- *)

let test_counting_perfect_ok () =
  assert_good (Protocols.Counting.protocol_on Chan.Perfect ~domain:3) [ 1; 1; 2 ]
    Strategy.round_robin

let test_counting_breaks_under_reordering () =
  (* Not an attack search here — a direct scripted interleaving. *)
  let p = Protocols.Counting.protocol_on Chan.Reorder_dup ~domain:2 in
  let module Move = Kernel.Move in
  let script =
    [ Move.Wake_sender; Move.Wake_sender; Move.Deliver_to_receiver 1; Move.Deliver_to_receiver 0 ]
  in
  let r =
    Runner.run p ~input:[| 0; 1 |] ~strategy:(Strategy.scripted script)
      ~rng:(Stdx.Rng.create 1) ~max_steps:10 ()
  in
  check Alcotest.bool "violated" true (Trace.first_safety_violation r.Runner.trace <> None)

(* ------------------------- coded ------------------------- *)

let coded_xs = [ []; [ 0 ]; [ 0; 0 ]; [ 1 ]; [ 1; 1 ] ]

let test_coded_dup_repeats () =
  match Protocols.Coded.dup ~m:2 ~xs:coded_xs with
  | Error e -> Alcotest.failf "build: %a" Seqspace.Codes.pp_error e
  | Ok p ->
      List.iter
        (fun input ->
          assert_good p input (Strategy.fair_random ());
          assert_good p input (Strategy.dup_flood ()))
        coded_xs

let test_coded_del_repeats () =
  match Protocols.Coded.del ~m:2 ~xs:coded_xs with
  | Error e -> Alcotest.failf "build: %a" Seqspace.Codes.pp_error e
  | Ok p ->
      List.iter
        (fun input -> assert_good p input (Strategy.drop_first 2 (Strategy.fair_random ())))
        coded_xs

let test_coded_rejects_foreign_input () =
  match Protocols.Coded.dup ~m:2 ~xs:coded_xs with
  | Error e -> Alcotest.failf "build: %a" Seqspace.Codes.pp_error e
  | Ok p ->
      Alcotest.check_raises "foreign input"
        (Invalid_argument "coded-dup(m=2,|X|=5): input sequence is not in the allowable set")
        (fun () -> ignore (p.Kernel.Protocol.make_sender ~input:[| 0; 1 |]))

let test_coded_build_fails_beyond_alpha () =
  let too_big = Xset.to_list (Xset.All_upto { domain = 2; max_len = 2 }) in
  check Alcotest.bool "no code" true
    (match Protocols.Coded.dup ~m:2 ~xs:too_big with Error _ -> true | Ok _ -> false)

(* ------------------------- ladder ------------------------- *)

let ladder_xset = Xset.All_upto { domain = 2; max_len = 3 }

let test_ladder_all_inputs () =
  let p = Protocols.Ladder.protocol ~xset:ladder_xset ~drop_budget:2 in
  List.iter
    (fun input ->
      assert_good ~max_steps:60_000 p input (Strategy.fair_random ());
      assert_good ~max_steps:60_000 p input (Strategy.drop_first 2 (Strategy.fair_random ())))
    (Xset.to_list ladder_xset)

let test_ladder_learning_cost_grows_with_rank () =
  let p = Protocols.Ladder.protocol ~xset:ladder_xset ~drop_budget:1 in
  let cost input =
    let _, _, trace = run_ok ~max_steps:60_000 p input Strategy.round_robin 1 in
    Trace.messages_sent trace
  in
  (* <1 1 1> has the highest rank in the enumeration; <0> nearly the
     lowest: the unbounded protocol pays proportionally. *)
  check Alcotest.bool "rank cost" true (cost [ 1; 1; 1 ] > 3 * cost [ 0 ])

let test_ladder_expected_steps_formula () =
  check Alcotest.int "rank 0" 1
    (Protocols.Ladder.expected_learning_steps ~xset:ladder_xset ~drop_budget:1 []);
  let w = Protocols.Ladder.window ~drop_budget:1 in
  check Alcotest.int "window" 3 w;
  (* rank of [0] is 1 in the enumeration: 2*1*W + 1. *)
  check Alcotest.int "rank 1" ((2 * w) + 1)
    (Protocols.Ladder.expected_learning_steps ~xset:ladder_xset ~drop_budget:1 [ 0 ])

let test_ladder_rejects_foreign_input () =
  let p = Protocols.Ladder.protocol ~xset:ladder_xset ~drop_budget:1 in
  Alcotest.check_raises "foreign" (Invalid_argument "Ladder.protocol: input not in the allowable set")
    (fun () -> ignore (p.Kernel.Protocol.make_sender ~input:[| 7 |]))

(* ------------------------- hybrid ------------------------- *)

let hybrid_xset = Xset.All_upto { domain = 2; max_len = 4 }

let test_hybrid_no_fault_runs_abp () =
  let p = Protocols.Hybrid.protocol ~xset:hybrid_xset ~domain:2 ~drop_budget:1 () in
  List.iter
    (fun input ->
      List.iter
        (fun seed ->
          let safe, complete, trace = run_ok ~max_steps:50_000 p input Strategy.round_robin seed in
          if not (safe && complete) then
            Alcotest.failf "hybrid faultless failed: %a" Trace.pp_summary trace)
        [ 1 ])
    (Xset.to_list hybrid_xset)

let test_hybrid_recovers_from_fault () =
  let p = Protocols.Hybrid.protocol ~xset:hybrid_xset ~domain:2 ~drop_budget:1 ~timeout:6 () in
  List.iter
    (fun input ->
      let safe, complete, trace =
        run_ok ~max_steps:200_000 p input
          (Strategy.drop_after ~at:6 1 Strategy.round_robin)
          1
      in
      if not (safe && complete) then
        Alcotest.failf "hybrid fault recovery failed: %a" Trace.pp_summary trace)
    [ [ 0; 1; 0 ]; [ 1; 1; 1; 1 ]; [ 0; 0 ] ]

let test_hybrid_recovery_slower_than_abp_round () =
  (* The weak-boundedness shape in miniature: with a fault, completion
     takes much longer than without. *)
  let p = Protocols.Hybrid.protocol ~xset:hybrid_xset ~domain:2 ~drop_budget:1 ~timeout:6 () in
  let time strategy =
    let _, _, trace = run_ok ~max_steps:200_000 p [ 1; 0; 1; 0 ] strategy 1 in
    Option.get (Trace.completed_at trace)
  in
  let faultless = time Strategy.round_robin in
  let faulted = time (Strategy.drop_after ~at:6 1 Strategy.round_robin) in
  check Alcotest.bool "fault is expensive" true (faulted > 2 * faultless)

let test_hybrid_symbols () =
  check Alcotest.int "a" 4 (Protocols.Hybrid.recovery_symbol_a ~domain:2);
  check Alcotest.int "b" 5 (Protocols.Hybrid.recovery_symbol_b ~domain:2);
  check Alcotest.int "echo" 2 Protocols.Hybrid.recovery_echo

let prop_gbn_random_inputs =
  QCheck.Test.make ~name:"go-back-n transmits random inputs over lossy fifo" ~count:25
    QCheck.(triple small_int (int_range 1 4) (list_of_size Gen.(int_range 0 6) (int_range 0 2)))
    (fun (seed, window, input) ->
      let p = Protocols.Go_back_n.protocol ~domain:3 ~window in
      let safe, complete, _ =
        run_ok p input (Strategy.drop_rate 0.15 (Strategy.fair_random ())) seed
      in
      safe && complete)

let prop_stenning_random_inputs =
  QCheck.Test.make ~name:"stenning transmits random inputs over reorder+del" ~count:25
    QCheck.(pair small_int (list_of_size Gen.(int_range 0 6) (int_range 0 2)))
    (fun (seed, input) ->
      let p = Protocols.Stenning.protocol ~domain:3 ~max_len:6 in
      let safe, complete, _ =
        run_ok p input (Strategy.drop_rate 0.15 (Strategy.fair_random ())) seed
      in
      safe && complete)

(* ------------------------- selective repeat ------------------------- *)

let test_sr_fifo_lossy_correct () =
  let p = Protocols.Selective_repeat.protocol ~domain:3 ~window:3 in
  List.iter
    (fun input ->
      assert_good p input (Strategy.drop_rate 0.2 (Strategy.fair_random ())))
    [ [ 0; 1; 2; 0; 1; 2; 2 ]; [ 1; 1; 1; 1 ]; [ 2 ]; [] ]

let test_sr_validation () =
  Alcotest.check_raises "window >= 1"
    (Invalid_argument "Selective_repeat.protocol: window must be >= 1") (fun () ->
      ignore (Protocols.Selective_repeat.protocol ~domain:2 ~window:0));
  Alcotest.check_raises "modulus > window"
    (Invalid_argument "Selective_repeat.protocol: modulus must exceed window") (fun () ->
      ignore
        (Protocols.Selective_repeat.protocol_mod Chan.Fifo_lossy ~domain:2 ~window:3 ~modulus:3))

let test_sr_alphabets () =
  let p = Protocols.Selective_repeat.protocol ~domain:3 ~window:4 in
  check Alcotest.int "|M_S| = 2w*d" 24 p.Kernel.Protocol.sender_alphabet;
  check Alcotest.int "|M_R| = 2w" 8 p.Kernel.Protocol.receiver_alphabet

let test_sr_small_modulus_breaks () =
  (* The textbook result: w < M < 2w admits a window-overlap attack;
     M = 2w provably does not (exhaustive search). *)
  let protocol modulus =
    Protocols.Selective_repeat.protocol_mod Chan.Fifo_lossy ~domain:2 ~window:2 ~modulus
  in
  let attack modulus =
    Core.Attack.search_single (protocol modulus) ~x:[ 0; 1; 1; 1 ] ~depth:80
      ~max_sends_per_sender:10 ~max_sends_per_receiver:10 ()
  in
  (match attack 3 with
  | Core.Attack.Witness w -> Replay.single_witness ~name:"M=3 overlap" (protocol 3) w
  | Core.Attack.No_violation _ -> Alcotest.fail "M=3 should break");
  match attack 4 with
  | Core.Attack.No_violation { closed = true; _ } -> ()
  | Core.Attack.No_violation { closed = false; _ } -> Alcotest.fail "M=4 truncated"
  | Core.Attack.Witness _ -> Alcotest.fail "M=4 should be safe"

let prop_sr_random_inputs =
  QCheck.Test.make ~name:"selective repeat transmits random inputs over lossy fifo" ~count:25
    QCheck.(triple small_int (int_range 1 4) (list_of_size Gen.(int_range 0 6) (int_range 0 2)))
    (fun (seed, window, input) ->
      let p = Protocols.Selective_repeat.protocol ~domain:3 ~window in
      let safe, complete, _ =
        run_ok p input (Strategy.drop_rate 0.15 (Strategy.fair_random ())) seed
      in
      safe && complete)

(* ------------------------- alphabets ------------------------- *)

let test_declared_alphabets () =
  let p = Protocols.Norep.dup ~m:7 in
  check Alcotest.int "norep |M_S| = m" 7 p.Kernel.Protocol.sender_alphabet;
  check Alcotest.int "norep |M_R| = m" 7 p.Kernel.Protocol.receiver_alphabet;
  let p = Protocols.Abp.protocol ~domain:5 in
  check Alcotest.int "abp |M_S| = 2d" 10 p.Kernel.Protocol.sender_alphabet;
  check Alcotest.int "abp |M_R| = 2" 2 p.Kernel.Protocol.receiver_alphabet;
  let p = Protocols.Stenning.protocol ~domain:3 ~max_len:10 in
  check Alcotest.int "stenning grows" 30 p.Kernel.Protocol.sender_alphabet;
  let p = Protocols.Ladder.protocol ~xset:ladder_xset ~drop_budget:1 in
  check Alcotest.int "ladder |M_S| = 2" 2 p.Kernel.Protocol.sender_alphabet;
  check Alcotest.int "ladder |M_R| = 1" 1 p.Kernel.Protocol.receiver_alphabet

let () =
  Alcotest.run "protocols"
    [
      ( "trivial",
        [
          Alcotest.test_case "perfect channel" `Quick test_trivial_perfect;
          Alcotest.test_case "empty input" `Quick test_trivial_empty_input;
        ] );
      ( "norep",
        [
          Alcotest.test_case "dup: all sequences m=3" `Quick test_norep_dup_all_sequences_m3;
          Alcotest.test_case "del: all sequences m=3" `Quick test_norep_del_all_sequences_m3;
          Alcotest.test_case "message economy" `Quick test_norep_message_economy;
          qtest prop_norep_dup_random_inputs;
          qtest prop_norep_del_random_inputs;
        ] );
      ( "abp",
        [
          Alcotest.test_case "fifo-lossy" `Quick test_abp_fifo_lossy;
          Alcotest.test_case "repeated items" `Quick test_abp_handles_repeats;
          Alcotest.test_case "wire encoding" `Quick test_abp_encode_decode;
        ] );
      ( "stenning",
        [
          Alcotest.test_case "reorder+del" `Quick test_stenning_del;
          Alcotest.test_case "reorder+dup" `Quick test_stenning_dup;
          Alcotest.test_case "mod headers within window" `Quick test_stenning_mod_ok_within_window;
        ] );
      ( "counting",
        [
          Alcotest.test_case "perfect ok" `Quick test_counting_perfect_ok;
          Alcotest.test_case "breaks under reordering" `Quick test_counting_breaks_under_reordering;
        ] );
      ( "coded",
        [
          Alcotest.test_case "dup on repeats" `Quick test_coded_dup_repeats;
          Alcotest.test_case "del on repeats" `Quick test_coded_del_repeats;
          Alcotest.test_case "rejects foreign input" `Quick test_coded_rejects_foreign_input;
          Alcotest.test_case "no build beyond alpha" `Quick test_coded_build_fails_beyond_alpha;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "all inputs live and safe" `Quick test_ladder_all_inputs;
          Alcotest.test_case "cost grows with rank" `Quick test_ladder_learning_cost_grows_with_rank;
          Alcotest.test_case "expected steps formula" `Quick test_ladder_expected_steps_formula;
          Alcotest.test_case "rejects foreign input" `Quick test_ladder_rejects_foreign_input;
        ] );
      ( "hybrid",
        [
          Alcotest.test_case "faultless = abp" `Quick test_hybrid_no_fault_runs_abp;
          Alcotest.test_case "recovers from fault" `Quick test_hybrid_recovers_from_fault;
          Alcotest.test_case "recovery is expensive" `Quick test_hybrid_recovery_slower_than_abp_round;
          Alcotest.test_case "wire symbols" `Quick test_hybrid_symbols;
        ] );
      ( "alphabets",
        [ Alcotest.test_case "declared sizes" `Quick test_declared_alphabets ] );
      ( "selective-repeat",
        [
          Alcotest.test_case "correct on fifo-lossy" `Quick test_sr_fifo_lossy_correct;
          Alcotest.test_case "validation" `Quick test_sr_validation;
          Alcotest.test_case "alphabets" `Quick test_sr_alphabets;
          Alcotest.test_case "2w boundary" `Quick test_sr_small_modulus_breaks;
        ] );
      ( "random-input-properties",
        [
          qtest prop_gbn_random_inputs;
          qtest prop_stenning_random_inputs;
          qtest prop_sr_random_inputs;
        ] );
    ]
