(* Tests for the extension layers: trace rendering, model audits,
   Go-Back-N, exact knowledge universes, the probabilistic estimator,
   and the protocol-space census. *)

module Chan = Channel.Chan
module Strategy = Kernel.Strategy
module Runner = Kernel.Runner
module Trace = Kernel.Trace
module Move = Kernel.Move

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let run_trace ?(max_steps = 20_000) p input strategy seed =
  (Runner.run p ~input:(Array.of_list input) ~strategy ~rng:(Stdx.Rng.create seed) ~max_steps ())
    .Runner.trace

(* ------------------------- Render ------------------------- *)

let test_render_chart_mentions_everything () =
  let trace = run_trace (Protocols.Norep.dup ~m:2) [ 1; 0 ] Strategy.round_robin 1 in
  let s = Kernel.Render.chart trace in
  check Alcotest.bool "has header" true (contains_substring s "sender");
  check Alcotest.bool "has delivery arrow" true (contains_substring s "-->");
  check Alcotest.bool "has output" true (contains_substring s "Y = <1 0>");
  (* One line per move plus the header. *)
  let lines = String.split_on_char '\n' (String.trim s) in
  check Alcotest.int "line count" (Trace.length trace + 1) (List.length lines)

let test_render_window () =
  let trace = run_trace (Protocols.Norep.dup ~m:2) [ 1; 0 ] Strategy.round_robin 1 in
  let s = Kernel.Render.chart_window trace ~from:0 ~upto:2 in
  let lines = String.split_on_char '\n' (String.trim s) in
  check Alcotest.int "windowed" 3 (List.length lines)

let test_render_drop_marker () =
  let trace =
    run_trace (Protocols.Norep.del ~m:2) [ 0; 1 ]
      (Strategy.drop_first 1 (Strategy.fair_random ()))
      3
  in
  let s = Kernel.Render.chart trace in
  check Alcotest.bool "drop marked" true (contains_substring s "--X" || contains_substring s "X--")

let test_render_replay_witness () =
  let p = Protocols.Counting.protocol_on Chan.Reorder_dup ~domain:2 in
  match Core.Attack.search_pair p ~x1:[ 0; 1 ] ~x2:[ 1; 0 ] () with
  | Core.Attack.No_violation _ -> Alcotest.fail "expected witness"
  | Core.Attack.Witness w ->
      let moves = Core.Attack.run_moves w ~which:1 in
      let trace = Kernel.Render.moves_of_witness_run p ~input:[| 0; 1 |] ~moves in
      check Alcotest.int "all moves replayed" (List.length moves) (Trace.length trace);
      check Alcotest.bool "violation visible" true
        (Trace.first_safety_violation trace <> None)

(* ------------------------- Audit ------------------------- *)

let test_audit_clean_run () =
  let trace = run_trace (Protocols.Norep.dup ~m:3) [ 0; 2; 1 ] (Strategy.fair_random ()) 1 in
  let a = Kernel.Audit.run trace in
  check Alcotest.bool "ok" true a.Kernel.Audit.ok;
  check Alcotest.bool "conserved forward" true a.Kernel.Audit.forward.Kernel.Audit.conserved

let test_audit_del_with_drops () =
  let trace =
    run_trace (Protocols.Norep.del ~m:3) [ 0; 1 ]
      (Strategy.drop_first 2 (Strategy.fair_random ()))
      1
  in
  let a = Kernel.Audit.run trace in
  check Alcotest.bool "ok" true a.Kernel.Audit.ok;
  check Alcotest.int "drops counted" 2
    (a.Kernel.Audit.forward.Kernel.Audit.dropped + a.Kernel.Audit.backward.Kernel.Audit.dropped)

let test_audit_dup_over_delivery_is_fine () =
  let trace = run_trace (Protocols.Norep.dup ~m:2) [ 0; 1 ] (Strategy.dup_flood ()) 1 in
  let a = Kernel.Audit.run trace in
  check Alcotest.bool "duplication is legal" true a.Kernel.Audit.ok;
  check Alcotest.bool "really over-delivered" true
    (a.Kernel.Audit.forward.Kernel.Audit.delivered > a.Kernel.Audit.forward.Kernel.Audit.sent
    || a.Kernel.Audit.backward.Kernel.Audit.delivered > a.Kernel.Audit.backward.Kernel.Audit.sent
    || a.Kernel.Audit.forward.Kernel.Audit.delivered = a.Kernel.Audit.forward.Kernel.Audit.sent)

let prop_audit_always_ok_on_simulator_runs =
  (* The simulator can only produce model-conforming traces, so the
     audit must pass on anything it emits — across protocols,
     channels, and schedules. *)
  QCheck.Test.make ~name:"audit passes on every simulator trace" ~count:40
    QCheck.(pair small_int (int_range 0 3))
    (fun (seed, pick) ->
      let p, input =
        match pick with
        | 0 -> (Protocols.Norep.dup ~m:3, [ 0; 1 ])
        | 1 -> (Protocols.Norep.del ~m:3, [ 2; 0 ])
        | 2 -> (Protocols.Abp.protocol ~domain:2, [ 1; 1; 0 ])
        | _ -> (Protocols.Stenning.protocol ~domain:2 ~max_len:3, [ 0; 1; 1 ])
      in
      let trace =
        run_trace ~max_steps:4_000 p input
          (Strategy.drop_rate 0.1 (Strategy.fair_random ()))
          seed
      in
      (Kernel.Audit.run trace).Kernel.Audit.ok)

(* ------------------------- Go-Back-N ------------------------- *)

let test_gbn_fifo_lossy_correct () =
  let p = Protocols.Go_back_n.protocol ~domain:3 ~window:3 in
  List.iter
    (fun input ->
      List.iter
        (fun seed ->
          let trace =
            run_trace p input (Strategy.drop_rate 0.2 (Strategy.fair_random ())) seed
          in
          if Trace.first_safety_violation trace <> None then Alcotest.fail "unsafe";
          if Trace.completed_at trace = None then Alcotest.fail "incomplete")
        [ 1; 2; 3 ])
    [ [ 0; 1; 2; 0; 1; 2; 2 ]; [ 1; 1; 1; 1 ]; [ 2 ]; [] ]

let test_gbn_window_validation () =
  Alcotest.check_raises "window >= 1"
    (Invalid_argument "Go_back_n.protocol: window must be >= 1") (fun () ->
      ignore (Protocols.Go_back_n.protocol ~domain:2 ~window:0))

let test_gbn_alphabets () =
  let p = Protocols.Go_back_n.protocol ~domain:3 ~window:4 in
  check Alcotest.int "|M_S| = (w+1)d" 15 p.Kernel.Protocol.sender_alphabet;
  check Alcotest.int "|M_R| = w+1" 5 p.Kernel.Protocol.receiver_alphabet

let test_gbn_breaks_under_reordering () =
  (* Finite headers: items 0 and 3 collide mod 3 for window 2.  The
     single-run attack search finds the stale-frame acceptance. *)
  let p = Protocols.Go_back_n.protocol_on Chan.Reorder_dup ~domain:2 ~window:2 in
  match Core.Attack.search_single p ~x:[ 0; 1; 1; 1 ] ~depth:64 () with
  | Core.Attack.Witness w -> (
      match w.Core.Attack.kind with
      | Core.Attack.Safety _ -> Replay.single_witness ~name:"go-back-n stale frame" p w
      | Core.Attack.Starvation _ -> Alcotest.fail "expected safety")
  | Core.Attack.No_violation _ -> Alcotest.fail "expected witness"

let test_gbn_pipelines_vs_abp () =
  (* The window's purpose: fewer protocol steps per item than ABP on a
     clean FIFO channel. *)
  let steps p input =
    let trace = run_trace p input Strategy.round_robin 1 in
    match Trace.completed_at trace with
    | Some t -> t
    | None -> Alcotest.fail "incomplete"
  in
  let input = [ 0; 1; 0; 1; 0; 1; 0; 1 ] in
  let gbn = steps (Protocols.Go_back_n.protocol ~domain:2 ~window:4) input in
  let abp = steps (Protocols.Abp.protocol ~domain:2) input in
  check Alcotest.bool "pipelining helps" true (gbn <= abp)

(* ------------------------- Exact knowledge ------------------------- *)

let test_exact_universe_exhaustive_flag () =
  let p = Protocols.Norep.dup ~m:2 in
  let u, complete =
    Knowledge.Exact.universe p ~inputs:[ [ 0 ]; [ 1 ] ] ~depth:4 ()
  in
  check Alcotest.bool "exhaustive" true complete;
  check Alcotest.bool "has traces" true (Array.length (Knowledge.Universe.traces u) > 2);
  let u2, complete2 =
    Knowledge.Exact.universe p ~inputs:[ [ 0 ]; [ 1 ] ] ~depth:4 ~max_runs_per_input:3 ()
  in
  check Alcotest.bool "capped" false complete2;
  check Alcotest.int "cap respected" 6 (Array.length (Knowledge.Universe.traces u2))

let test_exact_knowledge_is_exact () =
  (* In the exhaustive depth-4 universe over inputs {<0>, <1>}, the
     receiver knows x_1 exactly when it has received the first
     message, in every run. *)
  let p = Protocols.Norep.dup ~m:2 in
  let u, complete = Knowledge.Exact.universe p ~inputs:[ [ 0 ]; [ 1 ] ] ~depth:4 () in
  check Alcotest.bool "exhaustive" true complete;
  let tarr = Knowledge.Universe.traces u in
  Array.iteri
    (fun run trace ->
      for time = 0 to Trace.length trace do
        let knows = Knowledge.Learn.knows_item u { Knowledge.Universe.run; time } ~i:1 in
        let received =
          List.exists
            (function Kernel.Hist.Got _ -> true | _ -> false)
            (Kernel.Hist.to_list (Trace.r_view trace time))
        in
        if knows <> received then
          Alcotest.failf "run %d time %d: knows=%b received=%b" run time knows received
      done)
    tarr

let test_exact_vs_sampled_ordering () =
  (* Sampled universes have fewer confusers, so sampled learning times
     can only be <= exact ones (comparing the same schedule). *)
  let p = Protocols.Norep.dup ~m:2 in
  let exact, complete = Knowledge.Exact.universe p ~inputs:[ [ 0 ]; [ 1 ] ] ~depth:6 () in
  check Alcotest.bool "exhaustive" true complete;
  let tarr = Knowledge.Universe.traces exact in
  (* Build the sampled universe from a subset of the same traces. *)
  let subset = [ tarr.(0); tarr.(Array.length tarr - 1) ] in
  let sampled = Knowledge.Universe.of_traces subset in
  List.iter
    (fun (e, s) ->
      match (e, s) with
      | Some e, Some s -> if s > e then Alcotest.fail "sampled learned later than exact"
      | None, Some _ -> () (* exact may never learn within the truncation *)
      | Some _, None -> Alcotest.fail "sampled missing a learning time exact has"
      | None, None -> ())
    (Knowledge.Exact.compare_with_sampled exact sampled ~run_exact:0 ~run_sampled:0)

(* ------------------------- Proba ------------------------- *)

let test_wilson_bounds () =
  check Alcotest.bool "zero failures small bound" true
    (Core.Proba.wilson_upper ~failures:0 ~trials:100 < 0.05);
  check Alcotest.bool "all failures near 1" true
    (Core.Proba.wilson_upper ~failures:100 ~trials:100 > 0.95);
  check (Alcotest.float 1e-9) "no trials" 1.0 (Core.Proba.wilson_upper ~failures:0 ~trials:0);
  (* Monotone in failures. *)
  check Alcotest.bool "monotone" true
    (Core.Proba.wilson_upper ~failures:10 ~trials:100
    < Core.Proba.wilson_upper ~failures:50 ~trials:100)

let test_proba_tight_protocol_never_fails () =
  let e =
    Core.Proba.estimate (Protocols.Norep.dup ~m:3) ~input:[ 0; 1; 2 ]
      ~strategy:(Strategy.fair_random ()) ~trials:30 ~max_steps:4_000 ()
  in
  check Alcotest.int "no safety failures" 0 e.Core.Proba.safety_failures;
  check Alcotest.int "no liveness failures" 0 e.Core.Proba.liveness_failures;
  check (Alcotest.float 1e-9) "p = 0" 0.0 e.Core.Proba.p_fail

let test_proba_overbound_fails_often () =
  let e =
    Core.Proba.estimate
      (Protocols.Counting.resend Chan.Reorder_dup ~domain:2)
      ~input:[ 0; 1; 0; 1 ] ~strategy:(Strategy.fair_random ()) ~trials:30 ~max_steps:4_000 ()
  in
  check Alcotest.bool "fails often" true (e.Core.Proba.p_fail > 0.5)

let test_proba_by_length_grouping () =
  let series =
    Core.Proba.failure_by_length (Protocols.Norep.dup ~m:3)
      ~inputs:[ [ 0 ]; [ 1 ]; [ 0; 1 ] ]
      ~strategy:(Strategy.fair_random ()) ~trials:5 ~max_steps:2_000 ()
  in
  check Alcotest.int "two lengths" 2 (List.length series);
  List.iter
    (fun (len, e) ->
      let expected_trials = if len = 1 then 10 else 5 in
      check Alcotest.int "pooled trials" expected_trials e.Core.Proba.trials)
    series

(* ------------------------- Spec ------------------------- *)

let test_spec_norep_recoverable () =
  let r = Core.Spec.recoverability (Protocols.Norep.del ~m:2) ~input:[ 0; 1 ] () in
  check Alcotest.bool "closed" true r.Core.Spec.closed;
  check Alcotest.int "no dead states" 0 r.Core.Spec.dead;
  check Alcotest.bool "recoverable" true (Core.Spec.recoverable r)

let test_spec_oneshot_dies () =
  let p = Protocols.Counting.protocol_on Chan.Reorder_del ~domain:2 in
  let r = Core.Spec.recoverability p ~input:[ 0; 1 ] () in
  check Alcotest.bool "closed" true r.Core.Spec.closed;
  check Alcotest.bool "dead states exist" true (r.Core.Spec.dead > 0);
  check Alcotest.bool "not recoverable" false (Core.Spec.recoverable r)

let test_spec_no_drops_rescues_oneshot () =
  (* The same one-shot protocol with deletion moves forbidden has no
     dead states: only the adversary's drops kill it. *)
  let p = Protocols.Counting.protocol_on Chan.Reorder_del ~domain:2 in
  let r = Core.Spec.recoverability p ~input:[ 0; 1 ] ~allow_drops:false () in
  check Alcotest.bool "closed" true r.Core.Spec.closed;
  check Alcotest.int "no dead without drops" 0 r.Core.Spec.dead

let test_spec_receiver_deterministic () =
  check Alcotest.bool "norep" true
    (Core.Spec.receiver_deterministic (Protocols.Norep.dup ~m:3) ~trials:5);
  check Alcotest.bool "abp" true
    (Core.Spec.receiver_deterministic (Protocols.Abp.protocol ~domain:2) ~trials:5)

let test_spec_empty_input_trivially_recoverable () =
  let r = Core.Spec.recoverability (Protocols.Norep.del ~m:2) ~input:[] () in
  check Alcotest.bool "recoverable" true (Core.Spec.recoverable r);
  check Alcotest.bool "initial state already complete" true (r.Core.Spec.completed > 0)

(* ------------------------- Census ------------------------- *)

let test_census_control () =
  check Alcotest.bool "control clean" true (Core.Census.control_is_clean ())

let test_census_no_survivors () =
  let r = Core.Census.run ~samples:60 () in
  check Alcotest.int "samples" 60 r.Core.Census.samples;
  check Alcotest.int "no survivors" 0 r.Core.Census.survivors;
  check Alcotest.int "nothing undecided" 0 r.Core.Census.undecided;
  check Alcotest.int "all classified" 60
    (r.Core.Census.broken_directly + r.Core.Census.witnessed);
  check Alcotest.bool "ok" true (Core.Census.ok r)

let test_census_deterministic () =
  let a = Core.Census.run ~samples:20 ~seed:5 () in
  let b = Core.Census.run ~samples:20 ~seed:5 () in
  check Alcotest.bool "same seed same report" true (a = b)

let () =
  Alcotest.run "extensions"
    [
      ( "render",
        [
          Alcotest.test_case "chart content" `Quick test_render_chart_mentions_everything;
          Alcotest.test_case "window" `Quick test_render_window;
          Alcotest.test_case "drop marker" `Quick test_render_drop_marker;
          Alcotest.test_case "witness replay" `Quick test_render_replay_witness;
        ] );
      ( "audit",
        [
          Alcotest.test_case "clean run" `Quick test_audit_clean_run;
          Alcotest.test_case "del with drops" `Quick test_audit_del_with_drops;
          Alcotest.test_case "dup over-delivery legal" `Quick test_audit_dup_over_delivery_is_fine;
          qtest prop_audit_always_ok_on_simulator_runs;
        ] );
      ( "go-back-n",
        [
          Alcotest.test_case "correct on fifo-lossy" `Quick test_gbn_fifo_lossy_correct;
          Alcotest.test_case "window validation" `Quick test_gbn_window_validation;
          Alcotest.test_case "alphabets" `Quick test_gbn_alphabets;
          Alcotest.test_case "breaks under reordering" `Quick test_gbn_breaks_under_reordering;
          Alcotest.test_case "pipelining vs abp" `Quick test_gbn_pipelines_vs_abp;
        ] );
      ( "exact knowledge",
        [
          Alcotest.test_case "exhaustive flag" `Quick test_exact_universe_exhaustive_flag;
          Alcotest.test_case "knowledge is exact" `Quick test_exact_knowledge_is_exact;
          Alcotest.test_case "exact vs sampled ordering" `Quick test_exact_vs_sampled_ordering;
        ] );
      ( "proba",
        [
          Alcotest.test_case "wilson bounds" `Quick test_wilson_bounds;
          Alcotest.test_case "tight protocol p=0" `Quick test_proba_tight_protocol_never_fails;
          Alcotest.test_case "over-bound fails often" `Quick test_proba_overbound_fails_often;
          Alcotest.test_case "grouping by length" `Quick test_proba_by_length_grouping;
        ] );
      ( "spec",
        [
          Alcotest.test_case "norep-del recoverable" `Quick test_spec_norep_recoverable;
          Alcotest.test_case "one-shot dies under deletion" `Quick test_spec_oneshot_dies;
          Alcotest.test_case "no drops, no deaths" `Quick test_spec_no_drops_rescues_oneshot;
          Alcotest.test_case "receiver deterministic" `Quick test_spec_receiver_deterministic;
          Alcotest.test_case "empty input" `Quick test_spec_empty_input_trivially_recoverable;
        ] );
      ( "census",
        [
          Alcotest.test_case "control clean" `Quick test_census_control;
          Alcotest.test_case "no survivors" `Quick test_census_no_survivors;
          Alcotest.test_case "deterministic" `Quick test_census_deterministic;
        ] );
    ]
