(* Tests for the fault-injection subsystem: plan legality against
   channel capabilities, injected runs staying inside the model,
   shrinking, soak determinism, and the resource guards. *)

module Plan = Faults.Plan
module Inject = Faults.Inject
module Shrink = Faults.Shrink
module Soak = Faults.Soak
module Chan = Channel.Chan
module Move = Kernel.Move
module Sim = Kernel.Sim
module Strategy = Kernel.Strategy
module Rng = Stdx.Rng

let check = Alcotest.check

let drop ~at ~count = Plan.Drop_burst { at; target = Plan.To_receiver; count }

let plan name events = { Plan.name; events }

let all_channels =
  [ Chan.Perfect; Chan.Fifo_lossy; Chan.Reorder_dup; Chan.Reorder_del;
    Chan.Bounded_reorder { lag = 2 } ]

(* ------------------------- plan validation ------------------------- *)

let test_capability_rejection () =
  let drops = plan "d" [ drop ~at:3 ~count:1 ] in
  let dups = plan "u" [ Plan.Dup_burst { at = 3; target = Plan.To_sender; count = 2 } ] in
  let storm = plan "s" [ Plan.Reorder_storm { at = 3; len = 2 } ] in
  let ok c p = Result.is_ok (Plan.validate ~channel:c p) in
  (* drops need a deleting channel: rejected on reorder+dup *)
  check Alcotest.bool "drop on dup rejected" false (ok Chan.Reorder_dup drops);
  check Alcotest.bool "drop on lossy ok" true (ok Chan.Fifo_lossy drops);
  (* dups need a duplicating channel: rejected on reorder+del *)
  check Alcotest.bool "dup on del rejected" false (ok Chan.Reorder_del dups);
  check Alcotest.bool "dup on dup ok" true (ok Chan.Reorder_dup dups);
  (* storms need reordering *)
  check Alcotest.bool "storm on lossy rejected" false (ok Chan.Fifo_lossy storm);
  check Alcotest.bool "storm on del ok" true (ok Chan.Reorder_del storm);
  (* blackout and crash are always legal *)
  List.iter
    (fun c ->
      check Alcotest.bool "blackout legal" true
        (ok c (plan "b" [ Plan.Blackout { at = 0; len = 3 } ]));
      check Alcotest.bool "crash legal" true
        (ok c (plan "c" [ Plan.Crash_restart { at = 4; who = Plan.Receiver } ])))
    all_channels

let test_malformed_rejected () =
  let bad e = Result.is_error (Plan.validate ~channel:Chan.Reorder_del (plan "x" [ e ])) in
  check Alcotest.bool "negative at" true
    (bad (Plan.Blackout { at = -1; len = 2 }));
  check Alcotest.bool "zero-length window" true
    (bad (Plan.Blackout { at = 2; len = 0 }));
  check Alcotest.bool "empty burst" true (bad (drop ~at:2 ~count:0))

let prop_random_plans_validate =
  QCheck.Test.make ~name:"random plans validate on their channel" ~count:200
    QCheck.(pair small_nat (int_bound 4))
    (fun (seed, ci) ->
      let channel = List.nth all_channels ci in
      let rng = Rng.create seed in
      let p = Plan.random ~channel ~rng () in
      Result.is_ok (Plan.validate ~channel p))

let prop_plan_json_roundtrip =
  QCheck.Test.make ~name:"plan JSON round-trip" ~count:200
    QCheck.(pair small_nat (int_bound 4))
    (fun (seed, ci) ->
      let channel = List.nth all_channels ci in
      let p = Plan.random ~channel ~rng:(Rng.create seed) () in
      Plan.of_json (Plan.to_json p) = Ok p)

(* ------------------- corrupt-state plan events ------------------- *)

let corrupt ~at ~who ~index = Plan.Corrupt_state { at; who; index }

let test_corrupt_needs_space () =
  let p = plan "c" [ corrupt ~at:0 ~who:Plan.Sender ~index:1 ] in
  (* Without a declared corrupted-start space, corruption is as
     illegal as a drop on a perfect channel. *)
  check Alcotest.bool "rejected without space" true
    (Result.is_error (Plan.validate ~channel:Chan.Fifo_lossy p));
  check Alcotest.bool "accepted inside space" true
    (Result.is_ok (Plan.validate ~channel:Chan.Fifo_lossy ~corrupt_space:(3, 2) p));
  check Alcotest.bool "index out of range" true
    (Result.is_error
       (Plan.validate ~channel:Chan.Fifo_lossy ~corrupt_space:(1, 2) p));
  check Alcotest.bool "receiver side checked separately" true
    (Result.is_error
       (Plan.validate ~channel:Chan.Fifo_lossy ~corrupt_space:(0, 1)
          (plan "r" [ corrupt ~at:0 ~who:Plan.Receiver ~index:1 ])));
  check Alcotest.bool "negative index" true
    (Result.is_error
       (Plan.validate ~channel:Chan.Fifo_lossy ~corrupt_space:(3, 2)
          (plan "n" [ corrupt ~at:0 ~who:Plan.Sender ~index:(-1) ])))

let test_corrupt_absent_from_default_stream () =
  (* The corrupt kind must be strictly opt-in: the default draw stream
     (and hence every pinned seeded battery) is unchanged, and an
     empty declared space draws nothing either. *)
  List.iter
    (fun seed ->
      let draw cs =
        Plan.random ~channel:Chan.Fifo_lossy ~rng:(Rng.create seed) ?corrupt_space:cs ()
      in
      check Alcotest.bool "empty space = default stream" true
        (draw None = draw (Some (0, 0))))
    [ 1; 2; 3; 7; 42 ]

let test_random_draws_receiver_corruptions () =
  (* With a receiver-only space every corruption drawn must target the
     receiver (written-count convention makes any tape length legal),
     and across seeds the pool actually yields some. *)
  let count who space =
    List.concat_map
      (fun seed ->
        let p =
          Plan.random ~channel:Chan.Fifo_lossy ~rng:(Rng.create seed)
            ~corrupt_space:space ()
        in
        List.filter_map
          (function
            | Plan.Corrupt_state { who = w; index; _ } when w = who -> Some index
            | _ -> None)
          p.Plan.events)
      (List.init 60 (fun i -> i))
  in
  let r_only = count Plan.Receiver (0, 3) in
  let s_in_r_only = count Plan.Sender (0, 3) in
  check Alcotest.bool "receiver-only space draws receivers" true (r_only <> []);
  check Alcotest.int "receiver-only space never draws senders" 0
    (List.length s_in_r_only);
  check Alcotest.bool "receiver indices in range" true
    (List.for_all (fun i -> i >= 0 && i < 3) r_only);
  let r_mixed = count Plan.Receiver (5, 2) in
  check Alcotest.bool "mixed space draws receivers too" true (r_mixed <> []);
  check Alcotest.bool "mixed receiver indices in range" true
    (List.for_all (fun i -> i >= 0 && i < 2) r_mixed)

let prop_corrupt_random_plans_validate =
  QCheck.Test.make ~name:"random corrupt-enabled plans validate" ~count:200
    QCheck.(pair small_nat (pair (int_bound 4) (int_bound 4)))
    (fun (seed, (ns, nr)) ->
      let corrupt_space = (ns + 1, nr) in
      let p =
        Plan.random ~channel:Chan.Fifo_lossy ~rng:(Rng.create seed) ~corrupt_space ()
      in
      Result.is_ok (Plan.validate ~channel:Chan.Fifo_lossy ~corrupt_space p))

let prop_corrupt_plan_json_roundtrip =
  QCheck.Test.make ~name:"corrupt-enabled plan JSON round-trip" ~count:200
    QCheck.small_nat
    (fun seed ->
      let p =
        Plan.random ~channel:Chan.Fifo_lossy ~rng:(Rng.create seed) ~corrupt_space:(5, 2) ()
      in
      Plan.of_json (Plan.to_json p) = Ok p)

(* ------------------------- injection legality ------------------------- *)

(* Drive a run by hand: whatever the injected strategy picks must be
   either a move the simulator listed as enabled or a restart (which
   [Sim.apply] accepts unconditionally) — so no injected schedule can
   ever raise [Model_violation]. *)
let drive_checked protocol ~input ~plan ~seed ~steps =
  let strategy = Inject.strategy ~plan ~base:Strategy.round_robin in
  let rng = Rng.create seed in
  let g = ref (Kernel.Global.initial protocol ~input) in
  let ok = ref true in
  (try
     for _ = 1 to steps do
       let enabled = Sim.enabled protocol !g in
       match strategy.Strategy.choose rng protocol !g enabled with
       | None -> raise Exit
       | Some m ->
           let legal =
             List.exists (Move.equal m) enabled
             || m = Move.Restart_sender || m = Move.Restart_receiver
           in
           if not legal then ok := false;
           g := Sim.apply protocol !g m
     done
   with Exit -> ());
  !ok

let prop_injected_moves_legal =
  QCheck.Test.make ~name:"injected strategies only play enabled-or-restart moves" ~count:60
    QCheck.(pair small_nat bool)
    (fun (seed, on_lossy) ->
      let protocol, channel =
        if on_lossy then (Protocols.Abp.protocol ~domain:2, Chan.Fifo_lossy)
        else
          ( Protocols.Ladder.protocol
              ~xset:(Seqspace.Xset.All_upto { domain = 2; max_len = 3 })
              ~drop_budget:1,
            Chan.Reorder_del )
      in
      let plan = Plan.random ~channel ~rng:(Rng.create (seed + 1)) () in
      drive_checked protocol ~input:[| 0; 1 |] ~plan ~seed ~steps:300)

let test_empty_plan_transparent () =
  (* The wrapper with no events must replay the base schedule exactly:
     same moves, same verdict — the fault layer is zero-cost when no
     plan is active. *)
  let p = Protocols.Abp.protocol ~domain:2 in
  let input = [| 0; 1; 1; 0 |] in
  let run strategy =
    Kernel.Runner.run p ~input ~strategy ~rng:(Rng.create 7) ~max_steps:5_000 ()
  in
  let base = run Strategy.round_robin in
  let wrapped = run (Inject.strategy ~plan:(plan "empty" []) ~base:Strategy.round_robin) in
  check Alcotest.int "same steps" base.Kernel.Runner.steps wrapped.Kernel.Runner.steps;
  check Alcotest.bool "same stop" true
    (base.Kernel.Runner.stop = wrapped.Kernel.Runner.stop)

let test_active_drop_accounting () =
  let p =
    plan "two-bursts"
      [ drop ~at:2 ~count:1;
        Plan.Drop_burst { at = 20; target = Plan.To_receiver; count = 2 } ]
  in
  let active ~time ~n = Inject.active p ~time ~dropped:(fun _ -> n) in
  (* first burst live until its drop lands, then inert *)
  check Alcotest.bool "armed before drop" true (active ~time:2 ~n:0 <> None);
  check Alcotest.bool "spent after drop" true (active ~time:5 ~n:1 = None);
  (* second burst accounts for the first's budget *)
  check Alcotest.bool "second armed at 1 prior drop" true (active ~time:20 ~n:1 <> None);
  check Alcotest.bool "second spent at 3 total" true (active ~time:20 ~n:3 = None);
  (* outside every window: inert regardless *)
  check Alcotest.bool "window closed" true (active ~time:50 ~n:0 = None)

let test_crash_restart_resets_process () =
  (* After Restart_receiver, writing resumes from scratch: item 0 is
     re-written, which on a non-empty output violates the prefix
     property only if the input disagrees — here it repeats, staying
     safe, but the receiver's protocol state is demonstrably reset
     (it re-acknowledges from bit 0). *)
  let p = Protocols.Abp.protocol ~domain:2 in
  let crash = plan "crash" [ Plan.Crash_restart { at = 5; who = Plan.Receiver } ] in
  let r =
    Kernel.Runner.run p ~input:[| 0; 1; 0; 1 |]
      ~strategy:(Inject.strategy ~plan:crash ~base:Strategy.round_robin)
      ~rng:(Rng.create 3) ~max_steps:5_000 ()
  in
  let moves = Kernel.Trace.moves r.Kernel.Runner.trace in
  check Alcotest.bool "restart move recorded" true
    (List.exists (fun m -> m = Move.Restart_receiver) (Array.to_list moves))

let test_corrupt_state_injected () =
  (* A scripted corruption plan compiles to a Corrupt move the
     simulator accepts, and the stabilising protocol still completes. *)
  let p = Protocols.Abp_stab.protocol ~domain:2 ~max_len:4 in
  let cplan = plan "c" [ corrupt ~at:0 ~who:Plan.Sender ~index:3 ] in
  let r =
    Kernel.Runner.run p ~input:[| 0; 1; 1; 0 |]
      ~strategy:(Inject.strategy ~plan:cplan ~base:Strategy.round_robin)
      ~rng:(Rng.create 3) ~max_steps:5_000 ()
  in
  let moves = Array.to_list (Kernel.Trace.moves r.Kernel.Runner.trace) in
  check Alcotest.bool "corrupt move recorded" true
    (List.exists (fun m -> m = Move.Corrupt_sender 3) moves);
  check Alcotest.bool "still completes" true
    (r.Kernel.Runner.stop = Kernel.Runner.Completed)

(* ------------------------- shrinking ------------------------- *)

let test_shrink_corrupt_index_toward_zero () =
  (* The "smaller" corruption is the one nearer the designated state:
     ddmin over a corrupt+blackout plan whose failure only needs some
     corruption must land on a single index-0 corrupt event. *)
  let noisy =
    plan "noisy"
      [ Plan.Blackout { at = 2; len = 3 }; corrupt ~at:0 ~who:Plan.Sender ~index:4 ]
  in
  let still_failing p =
    List.exists (function Plan.Corrupt_state _ -> true | _ -> false) p.Plan.events
  in
  let shrunk, _ =
    Shrink.run ~channel:Chan.Fifo_lossy ~corrupt_space:(5, 2) ~still_failing noisy
  in
  match shrunk.Plan.events with
  | [ Plan.Corrupt_state { index; _ } ] -> check Alcotest.int "index shrunk to 0" 0 index
  | _ -> Alcotest.fail "expected a single corrupt-state event"

let test_shrink_to_single_event () =
  let noisy =
    plan "noisy"
      [ Plan.Blackout { at = 1; len = 3 };
        drop ~at:6 ~count:2;
        Plan.Reorder_storm { at = 11; len = 4 } ]
  in
  (* Failure predicate: the plan still forces at least one drop before
     t=20 — only the drop burst matters, so ddmin must strip the rest. *)
  let still_failing p =
    List.exists
      (function Plan.Drop_burst { at; count; _ } -> at <= 20 && count >= 1 | _ -> false)
      p.Plan.events
  in
  let shrunk, stats = Shrink.run ~channel:Chan.Reorder_del ~still_failing noisy in
  check Alcotest.int "one event left" 1 (List.length shrunk.Plan.events);
  (match shrunk.Plan.events with
  | [ Plan.Drop_burst { count; _ } ] -> check Alcotest.int "burst shrunk to 1" 1 count
  | _ -> Alcotest.fail "expected a single drop burst");
  check Alcotest.bool "made progress" true (stats.Shrink.improved > 0)

let test_shrink_requires_failing_entry () =
  let p = plan "fine" [ drop ~at:3 ~count:1 ] in
  let shrunk, stats = Shrink.run ~channel:Chan.Reorder_del ~still_failing:(fun _ -> false) p in
  check Alcotest.bool "unchanged" true (shrunk = p);
  check Alcotest.int "zero trials" 0 stats.Shrink.trials

let test_shrink_never_emits_illegal () =
  (* Every candidate the predicate sees must validate on the channel. *)
  let noisy = plan "noisy" [ drop ~at:4 ~count:3; Plan.Blackout { at = 9; len = 2 } ] in
  let saw_illegal = ref false in
  let still_failing p =
    if Result.is_error (Plan.validate ~channel:Chan.Fifo_lossy p) then saw_illegal := true;
    List.exists (function Plan.Drop_burst _ -> true | _ -> false) p.Plan.events
  in
  ignore (Shrink.run ~channel:Chan.Fifo_lossy ~still_failing noisy);
  check Alcotest.bool "all candidates legal" false !saw_illegal

(* ------------------------- soak ------------------------- *)

let small_battery () = Soak.default_battery ~random_plans:1 ~seed:5 ()

let test_soak_jobs_invariant () =
  let report jobs = Stdx.Json.to_string (Stdx.Report.to_json (Soak.run ~jobs ~seed:5 (small_battery ()))) in
  let r1 = report 1 in
  check Alcotest.string "jobs 2 identical" r1 (report 2);
  check Alcotest.string "jobs 4 identical" r1 (report 4)

let test_soak_report_shape () =
  let r = Soak.run ~jobs:1 ~seed:5 (small_battery ()) in
  check Alcotest.string "id" "soak" r.Stdx.Report.id;
  check Alcotest.bool "ok when not truncated" true (r.Stdx.Report.ok = Some true);
  (* round-trips through the artifact schema *)
  check Alcotest.bool "artifact validates" true
    (Result.is_ok (Stdx.Report.validate_artifact (Stdx.Json.to_string (Stdx.Report.to_json r))))

let test_soak_wall_budget_truncates () =
  let r = Soak.run ~jobs:1 ~max_seconds:0.0 ~seed:5 (small_battery ()) in
  check Alcotest.bool "ok=false" true (r.Stdx.Report.ok = Some false);
  check Alcotest.bool "truncation note" true
    (List.exists
       (fun n -> String.length n >= 9 && String.sub n 0 9 = "TRUNCATED")
       r.Stdx.Report.notes)

let test_stab_battery_jobs_invariant () =
  let cases = Soak.stab_battery ~random_plans:1 ~seed:5 () in
  let report jobs = Stdx.Json.to_string (Stdx.Report.to_json (Soak.run ~jobs ~seed:5 cases)) in
  let r1 = report 1 in
  check Alcotest.string "jobs 2 identical" r1 (report 2);
  check Alcotest.string "jobs 4 identical" r1 (report 4);
  check Alcotest.string "jobs 7 identical" r1 (report 7)

(* ------------------------- resource guards ------------------------- *)

let test_explore_state_budget () =
  let p = Protocols.Abp.protocol ~domain:2 in
  let full = Kernel.Explore.reachable p ~input:[| 0; 1 |] ~depth:10 () in
  let capped = Kernel.Explore.reachable p ~input:[| 0; 1 |] ~depth:10 ~max_states:5 () in
  check Alcotest.bool "full not truncated" false full.Kernel.Explore.truncated;
  check Alcotest.bool "capped truncated" true capped.Kernel.Explore.truncated;
  check Alcotest.bool "budget respected" true (capped.Kernel.Explore.states <= 5);
  (* Only a new state is ever refused, so a closed space of exactly
     [max_states] states is not truncated. *)
  let keep =
    Kernel.Bfs.move_filter ~allow_drops:true ~max_sends_per_sender:3 ~max_sends_per_receiver:3
  in
  let explore max_states =
    Kernel.Explore.reachable p ~input:[| 0; 1 |] ~depth:200 ~move_filter:keep ~max_states ()
  in
  let fit = explore 60 in
  check Alcotest.int "exact fit: all states" 60 fit.Kernel.Explore.states;
  check Alcotest.bool "exact fit not truncated" false fit.Kernel.Explore.truncated;
  check Alcotest.bool "one short truncated" true (explore 59).Kernel.Explore.truncated;
  let r =
    Core.Spec.recoverability p ~input:[ 0; 1 ] ~depth:200 ~max_states:60 ~max_sends_per_sender:3
      ~max_sends_per_receiver:3 ~allow_drops:true ()
  in
  check Alcotest.bool "recoverability agrees" true r.Core.Spec.closed

let test_attack_wall_budget () =
  let p = Protocols.Counting.protocol_on Chan.Reorder_dup ~domain:2 in
  match Core.Attack.search_pair p ~x1:[ 0; 1 ] ~x2:[ 1; 0 ] ~max_seconds:0.0 () with
  | Core.Attack.No_violation { closed; _ } ->
      check Alcotest.bool "truncated, not closed" false closed
  | Core.Attack.Witness _ -> Alcotest.fail "deadline 0 must truncate before searching"

let test_runner_wall_budget () =
  (* A starved run never completes, so only the clock can stop it
     short of the (huge) step budget. *)
  let p = Protocols.Abp.protocol ~domain:2 in
  let r =
    Kernel.Runner.run p ~input:[| 0; 1; 0; 1 |]
      ~strategy:(Strategy.starve_receiver ~until:max_int Strategy.round_robin)
      ~rng:(Rng.create 1) ~max_steps:1_000_000 ~max_seconds:0.0 ()
  in
  check Alcotest.bool "budget stop" true (r.Kernel.Runner.stop = Kernel.Runner.Budget);
  check Alcotest.bool "stopped by the clock, not the step budget" true
    (r.Kernel.Runner.steps < 1_000_000)

(* ------------------------- recovery verdicts ------------------------- *)

let test_recovery_verdict () =
  let v =
    {
      Core.Verdict.safe = true; complete = true; deadlocked = false; steps = 40;
      messages = 10; first_violation = None; completed_at = Some 30; recovered = None;
      stabilised = None;
    }
  in
  let a = Core.Verdict.assess_recovery ~last_fault:10 ~within:20 v in
  check Alcotest.bool "recovered in window" true (a.Core.Verdict.recovered = Some true);
  let b = Core.Verdict.assess_recovery ~last_fault:10 ~within:5 v in
  check Alcotest.bool "missed window" true (b.Core.Verdict.recovered = Some false);
  check Alcotest.bool "ttr" true (Core.Verdict.time_to_recover ~last_fault:10 v = Some 20);
  let unsafe = { v with Core.Verdict.safe = false } in
  check Alcotest.bool "unsafe never recovers" true
    ((Core.Verdict.assess_recovery ~last_fault:10 ~within:100 unsafe).Core.Verdict.recovered
     = Some false);
  check Alcotest.bool "unsafe has no ttr" true
    (Core.Verdict.time_to_recover ~last_fault:10 unsafe = None)

let test_recovery_verdict_edges () =
  let v =
    {
      Core.Verdict.safe = true; complete = true; deadlocked = false; steps = 40;
      messages = 10; first_violation = None; completed_at = Some 30; recovered = None;
      stabilised = None;
    }
  in
  (* A claimed fault beyond the trace end never landed: that is a
     vacuous non-recovery, not a pass, and it has no recovery time. *)
  let late = Core.Verdict.assess_recovery ~last_fault:41 ~within:100 v in
  check Alcotest.bool "fault beyond trace: not recovered" true
    (late.Core.Verdict.recovered = Some false);
  check Alcotest.bool "fault beyond trace: no ttr" true
    (Core.Verdict.time_to_recover ~last_fault:41 v = None);
  (* last_fault exactly at the trace end still counts as landed, and
     a run that had already completed before it recovered for free. *)
  let at_end = Core.Verdict.assess_recovery ~last_fault:40 ~within:0 v in
  check Alcotest.bool "fault at trace end assessable" true
    (at_end.Core.Verdict.recovered = Some true);
  check Alcotest.bool "completed before the fault: ttr 0" true
    (Core.Verdict.time_to_recover ~last_fault:40 v = Some 0);
  (* within = 0 is the defined boundary "completed at the fault". *)
  let boundary = Core.Verdict.assess_recovery ~last_fault:30 ~within:0 v in
  check Alcotest.bool "within=0, completed at fault: recovered" true
    (boundary.Core.Verdict.recovered = Some true);
  let missed = Core.Verdict.assess_recovery ~last_fault:29 ~within:0 v in
  check Alcotest.bool "within=0, completed after fault: missed" true
    (missed.Core.Verdict.recovered = Some false);
  check Alcotest.bool "negative last_fault raises" true
    (match Core.Verdict.assess_recovery ~last_fault:(-1) ~within:5 v with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check Alcotest.bool "negative within raises" true
    (match Core.Verdict.assess_recovery ~last_fault:1 ~within:(-5) v with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check Alcotest.bool "negative last_fault raises in ttr" true
    (match Core.Verdict.time_to_recover ~last_fault:(-1) v with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_stabilisation_verdict () =
  let v =
    {
      Core.Verdict.safe = true; complete = true; deadlocked = false; steps = 40;
      messages = 10; first_violation = None; completed_at = Some 30; recovered = None;
      stabilised = None;
    }
  in
  check Alcotest.bool "stabilised inside window" true
    ((Core.Verdict.assess_stabilisation ~within:30 v).Core.Verdict.stabilised = Some true);
  check Alcotest.bool "missed by one" true
    ((Core.Verdict.assess_stabilisation ~within:29 v).Core.Verdict.stabilised = Some false);
  check Alcotest.bool "tts" true (Core.Verdict.time_to_stabilise v = Some 30);
  let unsafe = { v with Core.Verdict.safe = false } in
  check Alcotest.bool "unsafe never stabilises" true
    ((Core.Verdict.assess_stabilisation ~within:100 unsafe).Core.Verdict.stabilised
     = Some false);
  check Alcotest.bool "unsafe has no tts" true
    (Core.Verdict.time_to_stabilise unsafe = None);
  check Alcotest.bool "negative within raises" true
    (match Core.Verdict.assess_stabilisation ~within:(-1) v with
    | exception Invalid_argument _ -> true
    | _ -> false)

let qsuite = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "faults"
    [
      ( "plans",
        [
          Alcotest.test_case "capability rejection" `Quick test_capability_rejection;
          Alcotest.test_case "malformed rejected" `Quick test_malformed_rejected;
        ]
        @ qsuite [ prop_random_plans_validate; prop_plan_json_roundtrip ] );
      ( "corrupt-state",
        [
          Alcotest.test_case "needs a declared space" `Quick test_corrupt_needs_space;
          Alcotest.test_case "opt-in draw stream" `Quick test_corrupt_absent_from_default_stream;
          Alcotest.test_case "receiver corruptions drawn" `Quick
            test_random_draws_receiver_corruptions;
          Alcotest.test_case "injected and survivable" `Quick test_corrupt_state_injected;
          Alcotest.test_case "shrinks index toward 0" `Quick test_shrink_corrupt_index_toward_zero;
        ]
        @ qsuite [ prop_corrupt_random_plans_validate; prop_corrupt_plan_json_roundtrip ] );
      ( "injection",
        [
          Alcotest.test_case "empty plan transparent" `Quick test_empty_plan_transparent;
          Alcotest.test_case "drop-burst accounting" `Quick test_active_drop_accounting;
          Alcotest.test_case "crash-restart resets" `Quick test_crash_restart_resets_process;
        ]
        @ qsuite [ prop_injected_moves_legal ] );
      ( "shrinking",
        [
          Alcotest.test_case "reduces to one event" `Quick test_shrink_to_single_event;
          Alcotest.test_case "non-failing entry unchanged" `Quick test_shrink_requires_failing_entry;
          Alcotest.test_case "candidates stay legal" `Quick test_shrink_never_emits_illegal;
        ] );
      ( "soak",
        [
          Alcotest.test_case "jobs invariant" `Quick test_soak_jobs_invariant;
          Alcotest.test_case "report shape" `Quick test_soak_report_shape;
          Alcotest.test_case "wall budget truncates" `Quick test_soak_wall_budget_truncates;
          Alcotest.test_case "stab battery jobs invariant" `Quick test_stab_battery_jobs_invariant;
        ] );
      ( "guards",
        [
          Alcotest.test_case "explore state budget" `Quick test_explore_state_budget;
          Alcotest.test_case "attack wall budget" `Quick test_attack_wall_budget;
          Alcotest.test_case "runner wall budget" `Quick test_runner_wall_budget;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "verdict semantics" `Quick test_recovery_verdict;
          Alcotest.test_case "trace-end and zero-window edges" `Quick test_recovery_verdict_edges;
          Alcotest.test_case "stabilisation semantics" `Quick test_stabilisation_verdict;
        ] );
    ]
