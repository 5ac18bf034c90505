(* Tests for the constructive impossibility machinery: the product
   attack search, witness reconstruction, and the harness/verdict/
   bounds layers around it. *)

module Attack = Core.Attack
module Chan = Channel.Chan
module Move = Kernel.Move
module Strategy = Kernel.Strategy
module Runner = Kernel.Runner
module Trace = Kernel.Trace

let check = Alcotest.check

let witness_exn = function
  | Attack.Witness w -> w
  | Attack.No_violation _ -> Alcotest.fail "expected a witness"

(* ------------------------- safety witnesses ------------------------- *)

let test_counting_reorder_witness () =
  let p = Protocols.Counting.protocol_on Chan.Reorder_dup ~domain:2 in
  let w = witness_exn (Attack.search_pair p ~x1:[ 0; 1 ] ~x2:[ 1; 0 ] ()) in
  (match w.Attack.kind with
  | Attack.Safety _ -> ()
  | Attack.Starvation _ -> Alcotest.fail "expected safety");
  check Alcotest.bool "short witness" true (w.Attack.depth <= 8)

let test_abp_duplication_witness () =
  let p = Protocols.Abp.protocol_on Chan.Reorder_dup ~domain:2 in
  let w = witness_exn (Attack.search_single p ~x:[ 0; 0 ] ()) in
  (match w.Attack.kind with
  | Attack.Safety { violated_run } -> check Alcotest.int "run 1" 1 violated_run
  | Attack.Starvation _ -> Alcotest.fail "expected safety");
  Replay.single_witness ~name:"abp-dup" p w

let test_stenning_mod_wraparound_witness () =
  let p = Protocols.Stenning_mod.protocol_on Chan.Reorder_dup ~domain:2 ~header_space:2 in
  Replay.single_witness ~name:"stenning-mod wraparound" p
    (witness_exn (Attack.search_single p ~x:[ 0; 1; 0; 1 ] ()))

(* ------------------------- witness replay ------------------------- *)

let test_witness_replays_to_violation () =
  (* The joint path projected on the violated run, fed back through the
     scripted strategy, must reproduce the safety violation — the
     witness is a real schedule, not an artifact of the search. *)
  let p = Protocols.Counting.protocol_on Chan.Reorder_dup ~domain:2 in
  let w = witness_exn (Attack.search_pair p ~x1:[ 0; 1 ] ~x2:[ 1; 0 ] ()) in
  let violated_run, input =
    match w.Attack.kind with
    | Attack.Safety { violated_run } ->
        (violated_run, if violated_run = 1 then w.Attack.x1 else w.Attack.x2)
    | Attack.Starvation _ -> Alcotest.fail "expected safety"
  in
  let moves = Attack.run_moves w ~which:violated_run in
  let r =
    Runner.run p ~input:(Array.of_list input) ~strategy:(Strategy.scripted moves)
      ~rng:(Stdx.Rng.create 1)
      ~max_steps:(List.length moves + 1)
      ()
  in
  check Alcotest.bool "replayed violation" true
    (Trace.first_safety_violation r.Runner.trace <> None)

(* Every witness cell of E10's quick grid (stenning-mod h over lag,
   h = 1..3, lag = 0..2, at the experiment's search parameters)
   replays through the scheduler. *)
let test_single_witness_replays () =
  let cells = ref 0 in
  for h = 1 to 3 do
    for lag = 0 to 2 do
      let p =
        Protocols.Stenning_mod.protocol_on (Chan.Bounded_reorder { lag }) ~domain:2
          ~header_space:h
      in
      let cap = (2 * (h + 1)) + 2 in
      match
        Attack.search_single p ~x:(List.init h (fun _ -> 0) @ [ 1 ]) ~depth:150
          ~max_sends_per_sender:cap ~max_sends_per_receiver:cap ~allow_drops:false ()
      with
      | Attack.Witness w ->
          incr cells;
          Replay.single_witness ~name:(Printf.sprintf "E10 h=%d lag=%d" h lag) p w
      | Attack.No_violation _ -> ()
    done
  done;
  check Alcotest.int "witness cells (lag >= h - 1)" 6 !cells

(* ------------------------- closures at the bound ------------------------- *)

let test_norep_dup_closes_clean () =
  let p = Protocols.Norep.dup ~m:2 in
  let outcomes, first = Attack.search p ~xs:(Seqspace.Norep.enumerate ~m:2) ~depth:200 () in
  check Alcotest.bool "no witness" true (first = None);
  List.iter
    (fun (_, _, o) ->
      match o with
      | Attack.No_violation { closed = true; _ } -> ()
      | Attack.No_violation { closed = false; _ } -> Alcotest.fail "truncated"
      | Attack.Witness _ -> Alcotest.fail "witness at the bound")
    outcomes

let test_norep_del_closes_clean () =
  let p = Protocols.Norep.del ~m:2 in
  let outcomes, first =
    Attack.search p ~xs:(Seqspace.Norep.enumerate ~m:2) ~depth:200 ~max_sends_per_sender:4
      ~max_sends_per_receiver:4 ()
  in
  check Alcotest.bool "no witness" true (first = None);
  List.iter
    (fun (_, _, o) ->
      match o with
      | Attack.No_violation { closed = true; _ } -> ()
      | Attack.No_violation { closed = false; _ } -> Alcotest.fail "truncated"
      | Attack.Witness _ -> Alcotest.fail "witness at the bound")
    outcomes

(* ------------------------- starvation witnesses ------------------------- *)

(* A starvation witness leads to a state on a fair cycle.  Replayed from
   the initial state, each run's projected moves must be enabled and
   accepted by the simulator, neither run may write wrong data, and the
   starved run must end short of its input. *)
let check_starvation_replays p (w : Attack.witness) =
  let starved =
    match w.Attack.kind with
    | Attack.Starvation { starved_run } -> starved_run
    | Attack.Safety _ -> Alcotest.fail "expected starvation"
  in
  List.iter
    (fun which ->
      let input = Array.of_list (if which = 1 then w.Attack.x1 else w.Attack.x2) in
      let step g m =
        if not (List.mem m (Kernel.Sim.enabled p g)) then
          Alcotest.failf "run %d: %s is not enabled" which (Move.to_string m);
        let g' = Kernel.Sim.apply p g m in
        if not (Kernel.Global.safety_ok g') then
          Alcotest.failf "run %d: unsafe after %s" which (Move.to_string m);
        g'
      in
      let last =
        List.fold_left step (Kernel.Global.initial p ~input) (Attack.run_moves w ~which)
      in
      if which = starved then
        check Alcotest.bool "the starved run ends incomplete" false (Kernel.Global.complete last))
    [ 1; 2 ]

(* E2's fixture. *)
let test_norep_dup_starvation_beyond_bound () =
  let p = Protocols.Norep.dup ~m:2 in
  let w = witness_exn (Attack.search_pair p ~x1:[ 0; 1 ] ~x2:[ 0; 0 ] ~depth:200 ()) in
  (match w.Attack.kind with
  | Attack.Starvation { starved_run } ->
      (* <0 0> is the sequence outside the repetition-free family. *)
      check Alcotest.int "starved run is the repeat" 2 starved_run
  | Attack.Safety _ -> Alcotest.fail "expected starvation");
  check_starvation_replays p w

(* E3's fixture. *)
let test_norep_del_starvation_beyond_bound () =
  let p = Protocols.Norep.del ~m:2 in
  let w =
    witness_exn
      (Attack.search_pair p ~x1:[ 0; 1 ] ~x2:[ 0; 0 ] ~depth:200 ~max_sends_per_sender:4
         ~max_sends_per_receiver:4 ())
  in
  (match w.Attack.kind with
  | Attack.Starvation { starved_run } -> check Alcotest.int "starved run" 2 starved_run
  | Attack.Safety _ -> Alcotest.fail "expected starvation");
  check_starvation_replays p w

(* The fixtures with the runs exchanged starve run 1, and so do the
   all-pairs sweeps over the inputs beyond the bound: every witness
   replays. *)
let test_starvation_witnesses_replay () =
  let dup = Protocols.Norep.dup ~m:2 and del = Protocols.Norep.del ~m:2 in
  let del_search =
    Attack.search_pair del ~depth:200 ~max_sends_per_sender:4 ~max_sends_per_receiver:4
  in
  List.iter
    (fun (p, w) ->
      (match w.Attack.kind with
      | Attack.Starvation { starved_run } -> check Alcotest.int "starved run" 1 starved_run
      | Attack.Safety _ -> Alcotest.fail "expected starvation");
      check_starvation_replays p w)
    [
      (dup, witness_exn (Attack.search_pair dup ~x1:[ 0; 0 ] ~x2:[ 0; 1 ] ~depth:200 ()));
      (del, witness_exn (del_search ~x1:[ 0; 0 ] ~x2:[ 0; 1 ] ()));
    ];
  let xs = [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ] ] in
  List.iter
    (fun (name, p, outcomes) ->
      let starved =
        List.filter_map
          (function
            | _, _, Attack.Witness ({ kind = Attack.Starvation _; _ } as w) -> Some w
            | _ -> None)
          outcomes
      in
      check Alcotest.bool (name ^ " sweep starves some pair") true (starved <> []);
      List.iter (check_starvation_replays p) starved)
    [
      ("dup", dup, fst (Attack.search dup ~xs ~depth:200 ()));
      ( "del",
        del,
        fst
          (Attack.search del ~xs ~depth:200 ~max_sends_per_sender:4 ~max_sends_per_receiver:4
             ()) );
    ]

let test_prefix_pairs_excluded () =
  let p = Protocols.Norep.dup ~m:2 in
  let outcomes, _ = Attack.search p ~xs:[ [ 0 ]; [ 0; 1 ] ] () in
  check Alcotest.int "prefix pair skipped" 0 (List.length outcomes)

(* ------------------------- search controls ------------------------- *)

let test_depth_truncation_reported () =
  let p = Protocols.Norep.del ~m:2 in
  match Attack.search_pair p ~x1:[ 0; 1 ] ~x2:[ 0; 0 ] ~depth:2 () with
  | Attack.No_violation { closed; _ } -> check Alcotest.bool "truncated" false closed
  | Attack.Witness _ -> Alcotest.fail "cannot witness at depth 2"

let test_max_states_truncation () =
  let p = Protocols.Norep.del ~m:2 in
  match
    Attack.search_pair p ~x1:[ 0; 1 ] ~x2:[ 0; 0 ] ~depth:200 ~max_states:50 ()
  with
  | Attack.No_violation { closed; states_explored } ->
      check Alcotest.bool "truncated" false closed;
      check Alcotest.bool "respected budget" true (states_explored <= 50)
  | Attack.Witness _ -> Alcotest.fail "cannot witness within 50 states"

(* A plain sweep is the quotient under the trivial group: each pair is
   its own representative, mapped back by the identity.  So it must
   return exactly what a search_pair call per eligible pair returns —
   whole outcomes, witness paths included — over sweeps that end in
   every way a search can.  An input listed twice lists its pairs twice,
   each occurrence in its place. *)
let test_sweep_is_per_pair_searches () =
  let counting = Protocols.Counting.protocol_on Chan.Reorder_dup ~domain:2 in
  let dup = Protocols.Norep.dup ~m:2 and del = Protocols.Norep.del ~m:2 in
  let xs = [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ] ] in
  let sweeps =
    [
      (counting, [ [ 0; 1 ]; [ 1; 0 ]; [ 1 ]; [ 0 ] ], 64, 200_000, 6);
      (dup, xs, 200, 3_000, 6);
      (del, xs, 200, 3_000, 3);
      (del, xs, 2, 3_000, 3);
      (del, [ [ 0; 1 ]; [ 1; 0 ]; [ 0 ]; [ 1 ]; [ 0; 1 ]; [ 1; 0 ] ], 200, 3_000, 3);
    ]
  in
  let kinds = Hashtbl.create 4 in
  List.iter
    (fun (p, xs, depth, max_states, caps) ->
      let outcomes, first =
        Attack.search p ~xs ~depth ~max_states ~max_sends_per_sender:caps
          ~max_sends_per_receiver:caps ()
      in
      let expected =
        List.map
          (fun (x1, x2) ->
            ( x1,
              x2,
              Attack.search_pair p ~x1 ~x2 ~depth ~max_states ~max_sends_per_sender:caps
                ~max_sends_per_receiver:caps () ))
          (Attack.eligible_pairs ~xs)
      in
      check Alcotest.bool (p.Kernel.Protocol.name ^ ": outcome for outcome") true
        (outcomes = expected);
      check Alcotest.bool "the first witness" true
        (first
        = List.find_map (function _, _, Attack.Witness w -> Some w | _ -> None) expected);
      List.iter
        (fun (_, _, o) ->
          Hashtbl.replace kinds
            (match o with
            | Attack.Witness { kind = Attack.Safety _; _ } -> "safety"
            | Attack.Witness { kind = Attack.Starvation _; _ } -> "starvation"
            | Attack.No_violation { closed = true; _ } -> "closed"
            | Attack.No_violation { closed = false; _ } -> "truncated")
            ())
        outcomes)
    sweeps;
  check Alcotest.int "safety, starvation, closed and truncated outcomes all met" 4
    (Hashtbl.length kinds);
  let outcomes, _ =
    Attack.search del ~xs:[ [ 0; 1 ]; [ 1; 0 ]; [ 0 ]; [ 1 ]; [ 0; 1 ]; [ 1; 0 ] ] ~depth:200
      ~max_sends_per_sender:3 ~max_sends_per_receiver:3 ()
  in
  check
    Alcotest.(list (pair (list int) (list int)))
    "every occurrence, in order"
    [
      ([ 0; 1 ], [ 1; 0 ]); ([ 0; 1 ], [ 1 ]); ([ 0; 1 ], [ 1; 0 ]);
      ([ 1; 0 ], [ 0 ]); ([ 1; 0 ], [ 0; 1 ]); ([ 0 ], [ 1 ]);
      ([ 0 ], [ 1; 0 ]); ([ 1 ], [ 0; 1 ]); ([ 0; 1 ], [ 1; 0 ]);
    ]
    (List.map (fun (a, b, _) -> (a, b)) outcomes)

let test_stenning_full_headers_survive () =
  (* The escape hatch: per-instance finite but growing alphabet. *)
  let p = Protocols.Stenning.protocol_on Chan.Reorder_dup ~domain:2 ~max_len:2 in
  match Attack.search_pair p ~x1:[ 0; 1 ] ~x2:[ 1; 0 ] ~depth:200 () with
  | Attack.No_violation { closed = true; _ } -> ()
  | Attack.No_violation { closed = false; _ } -> Alcotest.fail "truncated"
  | Attack.Witness w -> Alcotest.failf "stenning broken: %a" Attack.pp_witness w

(* ------------------------- verdict / harness / bounds ------------------------- *)

let test_verdict_good_run () =
  let p = Protocols.Norep.dup ~m:2 in
  let r =
    Runner.run p ~input:[| 0; 1 |] ~strategy:Strategy.round_robin ~rng:(Stdx.Rng.create 1)
      ~max_steps:500 ()
  in
  let v = Core.Verdict.of_result r in
  check Alcotest.bool "good" true (Core.Verdict.all_good v);
  check Alcotest.bool "not deadlocked" false v.Core.Verdict.deadlocked

let test_harness_clean_on_tight_protocol () =
  let report =
    Core.Harness.verify (Protocols.Norep.dup ~m:2) ~xs:(Seqspace.Norep.enumerate ~m:2)
      (Core.Harness.default_spec ~n_seeds:2 ())
  in
  check Alcotest.bool "clean" true (Core.Harness.clean report);
  check Alcotest.int "all runs counted" (5 * 3 * 2) report.Core.Harness.runs;
  check Alcotest.int "all safe" report.Core.Harness.runs report.Core.Harness.safe_runs

let test_harness_reports_failures () =
  (* The counting protocol under a hostile deterministic reordering
     schedule must produce failures the harness surfaces. *)
  let report =
    Core.Harness.verify
      (Protocols.Counting.protocol_on Chan.Reorder_dup ~domain:2)
      ~xs:[ [ 0; 1 ] ]
      {
        Core.Harness.strategies = [ Strategy.newest_first; Strategy.dup_flood () ];
        seeds = [ 1; 2 ];
        max_steps = 2_000;
      }
  in
  check Alcotest.bool "failures reported" true (not (Core.Harness.clean report))

let test_bounds_growth_slope () =
  check (Alcotest.float 1e-6) "flat" 0.0 (Core.Bounds.growth_slope [ (1, 5.0); (2, 5.0); (3, 5.0) ]);
  check (Alcotest.float 1e-6) "unit slope" 1.0
    (Core.Bounds.growth_slope [ (1, 1.0); (2, 2.0); (3, 3.0) ]);
  check (Alcotest.float 1e-6) "degenerate" 0.0 (Core.Bounds.growth_slope [ (1, 9.0) ])

let test_bounds_measure_shapes () =
  let ms =
    Core.Bounds.measure (Protocols.Norep.del ~m:2)
      ~xs:[ [ 0 ]; [ 1 ]; [ 0; 1 ] ]
      ~strategy:(Strategy.fair_random ()) ~seeds:[ 1; 2 ] ~max_steps:2_000 ()
  in
  check Alcotest.int "one measurement per run" 6 (List.length ms);
  List.iter
    (fun m ->
      check Alcotest.int "gap arity" (List.length m.Core.Bounds.input)
        (List.length m.Core.Bounds.learning_gaps))
    ms;
  let by_len = Core.Bounds.gap_by_length ms in
  check Alcotest.bool "grouped" true (List.length by_len >= 1)

(* ------------------------- engine baselines ------------------------- *)

(* Recorded against the pre-interning string-keyed engine on the E2,
   E3 and E10 fixtures.  These pin the BFS semantics across engine
   rewrites: the states-explored counts and witness kinds must never
   move.  Safety-witness depths are BFS-minimal and therefore also
   pinned.  E3's starvation depth is pinned by the representative rule:
   the earliest-admitted qualifying state of the first qualifying
   component, components in Tarjan order from the root. *)

let test_e2_baseline () =
  let p = Protocols.Counting.protocol_on Chan.Reorder_dup ~domain:2 in
  let w = witness_exn (Attack.search_pair p ~x1:[ 0; 1 ] ~x2:[ 1; 0 ] ()) in
  (match w.Attack.kind with
  | Attack.Safety { violated_run } -> check Alcotest.int "violated run" 1 violated_run
  | Attack.Starvation _ -> Alcotest.fail "expected safety");
  check Alcotest.int "depth" 4 w.Attack.depth;
  check Alcotest.int "states explored" 9 w.Attack.states_explored

let test_e3_baseline () =
  let w =
    witness_exn
      (Attack.search_pair (Protocols.Norep.del ~m:2) ~x1:[ 0; 1 ] ~x2:[ 0; 0 ] ~depth:200
         ~max_sends_per_sender:4 ~max_sends_per_receiver:4 ())
  in
  (match w.Attack.kind with
  | Attack.Starvation { starved_run } -> check Alcotest.int "starved run" 2 starved_run
  | Attack.Safety _ -> Alcotest.fail "expected starvation");
  check Alcotest.int "depth" 10 w.Attack.depth;
  check Alcotest.int "states explored" 4084 w.Attack.states_explored;
  check_starvation_replays (Protocols.Norep.del ~m:2) w

let test_e10_baseline () =
  let p =
    Protocols.Stenning_mod.protocol_on (Chan.Bounded_reorder { lag = 1 }) ~domain:2
      ~header_space:2
  in
  let w =
    witness_exn
      (Attack.search_single p ~x:[ 0; 0; 1 ] ~depth:80 ~max_sends_per_sender:8
         ~max_sends_per_receiver:8 ~allow_drops:false ())
  in
  (match w.Attack.kind with
  | Attack.Safety { violated_run } -> check Alcotest.int "violated run" 1 violated_run
  | Attack.Starvation _ -> Alcotest.fail "expected safety");
  check Alcotest.int "depth" 7 w.Attack.depth;
  check Alcotest.int "states explored" 69 w.Attack.states_explored;
  Replay.single_witness ~name:"e10 baseline" p w

(* The out-of-core frontier's exactness contract on the engine
   baselines: a budgeted search (4096 B forces the pager to its
   two-chunk floor) renders byte-identical reports to the default
   unbounded one.  The stats rider is deliberately absent — it is the
   budget-variant half of the API and never enters artifacts. *)
let report_bytes ~x1 ~x2 o =
  Stdx.Json.to_string (Stdx.Report.to_json (Attack.outcome_report ~x1 ~x2 o))

let test_mem_budget_report_identity () =
  let pin name ~x1 ~x2 search =
    check Alcotest.string name
      (report_bytes ~x1 ~x2 (search ?mem_budget_bytes:None ()))
      (report_bytes ~x1 ~x2 (search ?mem_budget_bytes:(Some 4096) ()))
  in
  let e2 = Protocols.Counting.protocol_on Chan.Reorder_dup ~domain:2 in
  pin "e2 report bytes" ~x1:[ 0; 1 ] ~x2:[ 1; 0 ] (fun ?mem_budget_bytes () ->
      Attack.search_pair e2 ~x1:[ 0; 1 ] ~x2:[ 1; 0 ] ?mem_budget_bytes ());
  pin "e3 report bytes" ~x1:[ 0; 1 ] ~x2:[ 0; 0 ] (fun ?mem_budget_bytes () ->
      Attack.search_pair (Protocols.Norep.del ~m:2) ~x1:[ 0; 1 ] ~x2:[ 0; 0 ] ~depth:200
        ~max_sends_per_sender:4 ~max_sends_per_receiver:4 ?mem_budget_bytes ());
  let e10 =
    Protocols.Stenning_mod.protocol_on (Chan.Bounded_reorder { lag = 1 }) ~domain:2
      ~header_space:2
  in
  pin "e10 report bytes" ~x1:[ 0; 0; 1 ] ~x2:[ 0; 0; 1 ] (fun ?mem_budget_bytes () ->
      Attack.search_single e10 ~x:[ 0; 0; 1 ] ~depth:80 ~max_sends_per_sender:8
        ~max_sends_per_receiver:8 ~allow_drops:false ?mem_budget_bytes ())

(* A genuinely spilling search agrees with the unbounded one outcome
   for outcome, and its counters prove both sides of the contract:
   chunks actually paged to disk, and the resident peak stayed at the
   pager's floor. *)
let test_mem_budget_spill_exactness () =
  let p = Protocols.Norep.del ~m:4 in
  let x1 = [ 0; 1; 2; 3 ] and x2 = [ 0; 1; 3; 2 ] in
  let search ?mem_budget_bytes ?stats () =
    Attack.search_pair p ~x1 ~x2 ~depth:200 ~max_sends_per_sender:4
      ~max_sends_per_receiver:4 ?mem_budget_bytes ?stats ()
  in
  let stats = Attack.Stats.create () in
  let spilled = search ~mem_budget_bytes:1 ~stats () in
  let unbounded = search () in
  check Alcotest.string "report bytes identical"
    (report_bytes ~x1 ~x2 unbounded)
    (report_bytes ~x1 ~x2 spilled);
  let s = Attack.Stats.snapshot stats in
  check Alcotest.bool "chunks spilled" true (s.Attack.Stats.spill_chunks > 0);
  check Alcotest.bool "bytes spilled" true (s.Attack.Stats.spilled_bytes > 0);
  check Alcotest.bool "resident at floor" true
    (s.Attack.Stats.peak_resident_bytes <= 2 * 8208);
  check Alcotest.bool "queued overflowed a chunk" true
    (s.Attack.Stats.peak_frontier_bytes > 8192)

(* Every byte of the E1-E12 quick-mode tables and notes, pinned as MD5
   digests recorded before the fault-injection layer landed: restart
   moves, recovery verdicts, and the budget plumbing must be invisible
   to every schedule that injects no fault.  E3's table digest was
   re-recorded once, when the starvation representative became
   admission-ordered (see test_e3_baseline): its norep-del + <0 0> cell
   reads depth 10 where the hash-table order gave 14. *)
let e_digests_pre =
  [
    ("E1", "50418b1e2e7002106beb17f8a5f7f420", "1b14d7c01af322d73c50e3d94a8f5b6f");
    ("E2", "69d0be95c305a736da152e2cdc0531db", "b8393ae9253269aabdede27257fb2cb1");
    ("E3", "7be502d9ccec307d798d17745c0a7719", "9385a0dbc29cb743ff71c936fd3b85cd");
    ("E4", "167d47a89defd88cd84020ea805e6733", "7e6353aa471c5a0bbfb659762ba6312f");
    ("E5", "87b636635ad806b6cc5ffbf149426faa", "d4b8b83ca8bf459d18838132fded0b4c");
    ("E6", "9b4de806ac45a7ca7248e4187e2419e6", "b39e195eee2041ef19d1afc4625b4ed6");
    ("E7", "4aebacfe8b3c4c6641c40fddc8fcf327", "618de41397e566be94fec97e2416b288");
    ("E8", "7530afa8c20d8153a3d4f2e66895e5b7", "8e9a7e6b17140a11a0442ba8c1e94bdd");
    ("E9", "55253e89c58249287694b887a45f1a2a", "f045ddce509025cbdf8a8e46e849f317");
    ("E10", "7e17aa20a57fda7be09add0375b3598c", "6d365baa712d46749a764bac92c7de3e");
    ("E11", "deb59a3f00a747e198e00cc2741d9c57", "5a71dcb87f87a265ed692f6ef3623aad");
    ("E12", "b3a05a9c8d937cd1e68d820f55588c14", "9541fe15645fcdac15abf15731a93845");
  ]

let test_experiment_digests () =
  List.iter
    (fun (id, table_md5, notes_md5) ->
      match Kernel.Registry.find_experiment id with
      | None -> Alcotest.failf "experiment %s not registered" id
      | Some e ->
          let r = e.Kernel.Registry.e_quick () in
          let digest s = Digest.to_hex (Digest.string s) in
          check Alcotest.string (id ^ " table bytes") table_md5
            (digest (Core.Experiments.table r));
          check Alcotest.string (id ^ " notes bytes") notes_md5
            (digest (String.concat "\n" (Core.Experiments.notes r))))
    e_digests_pre

(* Whole outcomes, witness paths included, at jobs 1 and 2: each
   domain reuses its own joint-search tables, so the searches land on
   different tables at each job count.  The sweeps end in every way a
   search can: safety stops, starvation witnesses and clean closes. *)
let test_search_jobs_equivalence () =
  let outcome_t =
    Alcotest.testable
      (fun ppf (x1, x2, o) ->
        match o with
        | Attack.Witness w -> Attack.pp_witness ppf w
        | Attack.No_violation { closed; states_explored } ->
            Format.fprintf ppf "%a vs %a: closed %b, %d states" Seqspace.Xset.pp_sequence x1
              Seqspace.Xset.pp_sequence x2 closed states_explored)
      ( = )
  in
  let sweeps =
    [
      ( "counting-dup",
        fun jobs ->
          Attack.search (Protocols.Counting.protocol_on Chan.Reorder_dup ~domain:2)
            ~xs:[ [ 0; 1 ]; [ 1; 0 ]; [ 1 ]; [ 0 ] ] ~jobs () );
      ( "norep-dup",
        fun jobs ->
          Attack.search (Protocols.Norep.dup ~m:2)
            ~xs:[ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ] ]
            ~depth:200 ~jobs () );
    ]
  in
  List.iter
    (fun (name, sweep) ->
      let o1, w1 = sweep 1 and o2, w2 = sweep 2 in
      check (Alcotest.list outcome_t) (name ^ ": outcomes identical") o1 o2;
      check Alcotest.bool (name ^ ": first witness identical") true (w1 = w2))
    sweeps

let test_runstate_sharing_invariant () =
  (* Private stores and stores shared across pairs must produce
     identical outcomes — sharing changes only the work.  The shared
     stores must actually be reused (hits from more than one pair land
     in the same store).  The joint search against a reference without
     stores is test_bfs's differential oracle. *)
  let p = Protocols.Norep.del ~m:2 in
  let caps = 3 in
  let pairs = [ ([ 0; 1 ], [ 1; 0 ]); ([ 0; 1 ], [ 1 ]); ([ 1; 0 ], [ 0 ]) ] in
  let search ?runstates (x1, x2) =
    Attack.search_pair p ~x1 ~x2 ~depth:200 ~max_sends_per_sender:caps
      ~max_sends_per_receiver:caps ?runstates ()
  in
  let stores = Hashtbl.create 4 in
  let store x =
    match Hashtbl.find_opt stores x with
    | Some rs -> rs
    | None ->
        let rs = Attack.Runstate.create p ~x in
        Hashtbl.add stores x rs;
        rs
  in
  List.iter
    (fun ((x1, x2) as pair) ->
      let private_ = search pair in
      let shared = search ~runstates:(store x1, store x2) pair in
      check Alcotest.bool "shared = private" true (shared = private_))
    pairs;
  let rs01 = store [ 0; 1 ] in
  check Alcotest.bool "shared store interned states" true (Attack.Runstate.states rs01 > 1);
  check Alcotest.bool "shared store was hit" true (Attack.Runstate.hits rs01 > 0)

let () =
  Alcotest.run "attack"
    [
      ( "safety witnesses",
        [
          Alcotest.test_case "counting vs reorder" `Quick test_counting_reorder_witness;
          Alcotest.test_case "abp vs duplication" `Quick test_abp_duplication_witness;
          Alcotest.test_case "stenning-mod wraparound" `Quick test_stenning_mod_wraparound_witness;
        ] );
      ( "replay",
        [
          Alcotest.test_case "pair witness replays" `Quick test_witness_replays_to_violation;
          Alcotest.test_case "single witness replays" `Quick test_single_witness_replays;
        ] );
      ( "closure at the bound",
        [
          Alcotest.test_case "norep-dup closes" `Quick test_norep_dup_closes_clean;
          Alcotest.test_case "norep-del closes" `Quick test_norep_del_closes_clean;
          Alcotest.test_case "stenning survives" `Quick test_stenning_full_headers_survive;
        ] );
      ( "starvation beyond the bound",
        [
          Alcotest.test_case "dup starves the repeat" `Quick test_norep_dup_starvation_beyond_bound;
          Alcotest.test_case "del starves the repeat" `Quick test_norep_del_starvation_beyond_bound;
          Alcotest.test_case "starvation witnesses replay" `Quick test_starvation_witnesses_replay;
          Alcotest.test_case "prefix pairs excluded" `Quick test_prefix_pairs_excluded;
        ] );
      ( "engine baselines",
        [
          Alcotest.test_case "e2 dup attack" `Quick test_e2_baseline;
          Alcotest.test_case "e3 del attack" `Quick test_e3_baseline;
          Alcotest.test_case "e10 crossover cell" `Quick test_e10_baseline;
          Alcotest.test_case "mem-budget report identity" `Quick
            test_mem_budget_report_identity;
          Alcotest.test_case "spilled search exactness" `Quick
            test_mem_budget_spill_exactness;
          Alcotest.test_case "e1-e12 quick output bytes" `Slow test_experiment_digests;
          Alcotest.test_case "jobs-invariant sweep" `Quick test_search_jobs_equivalence;
          Alcotest.test_case "runstate sharing invariant" `Quick test_runstate_sharing_invariant;
        ] );
      ( "search controls",
        [
          Alcotest.test_case "depth truncation" `Quick test_depth_truncation_reported;
          Alcotest.test_case "state budget" `Quick test_max_states_truncation;
          Alcotest.test_case "sweep = per-pair searches" `Quick test_sweep_is_per_pair_searches;
        ] );
      ( "verdict/harness/bounds",
        [
          Alcotest.test_case "verdict good run" `Quick test_verdict_good_run;
          Alcotest.test_case "harness clean" `Quick test_harness_clean_on_tight_protocol;
          Alcotest.test_case "harness failures" `Quick test_harness_reports_failures;
          Alcotest.test_case "growth slope" `Quick test_bounds_growth_slope;
          Alcotest.test_case "bounds measure" `Quick test_bounds_measure_shapes;
        ] );
    ]
