(* Deterministic-interleaving tests for the event-queue scheduler.

   The contract (see the determinism note in Kernel.Sched): a batch of
   N sessions produces results byte-identical to N sequential
   Runner.run calls, at every timeslice and every --jobs count,
   because sessions own their rng and Sim.apply is pure.  These tests
   pin that against a mixed battery of protocols, strategies, and
   seeds — the property the serve daemon and every ported engine
   (Proba, Bounds, Harness, Soak) rests on. *)

module Sched = Kernel.Sched
module Runner = Kernel.Runner
module Strategy = Kernel.Strategy
module Move = Kernel.Move
module Trace = Kernel.Trace

let check = Alcotest.check

(* One spec = one session, as plain data so we can build it twice
   (once for the sequential baseline, once for the batch). *)
type spec = {
  protocol : Kernel.Protocol.t;
  input : int array;
  strategy : unit -> Strategy.t;
  seed : int;
  max_steps : int;
  post_roll : int;
}

let battery () =
  let abp = Protocols.Abp.protocol ~domain:2 in
  let norep = Protocols.Norep.del ~m:3 in
  let counting = Protocols.Counting.resend Channel.Chan.Reorder_dup ~domain:2 in
  let specs = ref [] in
  let add protocol input strategy seed post_roll =
    specs :=
      { protocol; input; strategy; seed; max_steps = 3_000; post_roll } :: !specs
  in
  List.iter
    (fun seed ->
      add abp [| 0; 1; 1; 0 |] (fun () -> Strategy.fair_random ()) seed 0;
      add abp [| 1; 0 |] (fun () -> Strategy.round_robin) seed 2;
      add norep [| 0; 2 |] (fun () -> Strategy.fair_random ()) seed 0;
      add norep [| 1 |] (fun () -> Strategy.newest_first) seed 0;
      add counting [| 0; 1 |] (fun () -> Strategy.fair_random ()) seed 1;
      add counting [| 1; 1; 0 |]
        (fun () -> Strategy.drop_rate 0.2 (Strategy.fair_random ()))
        seed 0)
    [ 1; 2; 5; 11; 42 ];
  List.rev !specs

let session_of_spec s =
  Sched.session s.protocol ~input:s.input ~strategy:(s.strategy ())
    ~rng:(Stdx.Rng.create s.seed) ~max_steps:s.max_steps ~post_roll:s.post_roll ()

let sequential_of_spec s =
  Runner.run s.protocol ~input:s.input ~strategy:(s.strategy ())
    ~rng:(Stdx.Rng.create s.seed) ~max_steps:s.max_steps ~post_roll:s.post_roll ()

(* Everything observable about a result, compared field by field so a
   mismatch names the session and the field. *)
let check_result_eq label (a : Runner.result) (b : Runner.result) =
  check Alcotest.string (label ^ ": stop")
    (Format.asprintf "%a" Runner.pp_stop a.stop)
    (Format.asprintf "%a" Runner.pp_stop b.stop);
  check Alcotest.int (label ^ ": steps") a.steps b.steps;
  check Alcotest.int (label ^ ": trace length") (Trace.length a.trace)
    (Trace.length b.trace);
  check Alcotest.bool (label ^ ": moves") true
    (let ma = Trace.moves a.trace and mb = Trace.moves b.trace in
     Array.length ma = Array.length mb
     && Array.for_all2 Move.equal ma mb);
  check Alcotest.(option int)
    (label ^ ": completed_at")
    (Trace.completed_at a.trace)
    (Trace.completed_at b.trace);
  check Alcotest.(option int)
    (label ^ ": first_safety_violation")
    (Trace.first_safety_violation a.trace)
    (Trace.first_safety_violation b.trace)

let test_batch_matches_sequential () =
  let specs = battery () in
  let baseline = List.map sequential_of_spec specs in
  List.iter
    (fun jobs ->
      let batch = Core.Batch.run ~jobs (List.map session_of_spec specs) in
      check Alcotest.int
        (Printf.sprintf "jobs=%d: result count" jobs)
        (List.length baseline) (List.length batch);
      List.iteri
        (fun i (a, b) ->
          check_result_eq (Printf.sprintf "jobs=%d session=%d" jobs i) a b)
        (List.combine baseline batch))
    [ 1; 2; 4; 7 ]

let test_timeslice_invariant () =
  let specs = battery () in
  let baseline = List.map sequential_of_spec specs in
  List.iter
    (fun timeslice ->
      let batch = Sched.run ~timeslice (List.map session_of_spec specs) in
      List.iteri
        (fun i (a, b) ->
          check_result_eq
            (Printf.sprintf "timeslice=%d session=%d" timeslice i)
            a b)
        (List.combine baseline batch))
    [ 1; 3; Sched.default_timeslice ]

let test_stats_histogram () =
  let specs = battery () in
  let results, stats = Sched.run_stats (List.map session_of_spec specs) in
  check Alcotest.int "sessions" (List.length specs) stats.Sched.sessions;
  check Alcotest.int "peak_live" (List.length specs) stats.Sched.peak_live;
  check Alcotest.int "histogram sums to sessions" stats.Sched.sessions
    (stats.Sched.completed + stats.Sched.quiescent + stats.Sched.budget
   + stats.Sched.strategy_end);
  check Alcotest.int "steps = sum of per-session steps"
    (List.fold_left (fun acc (r : Sched.result) -> acc + r.steps) 0 results)
    stats.Sched.steps;
  check Alcotest.bool "ticks >= sessions" true
    (stats.Sched.ticks >= stats.Sched.sessions)

let test_stats_merge () =
  let specs = battery () in
  (* A session is consumed by the run that retires it, so each
     run_stats below gets a freshly built batch. *)
  let _, whole = Sched.run_stats (List.map session_of_spec specs) in
  let merged =
    Core.Batch.shard ~jobs:3 (List.map session_of_spec specs)
    |> List.map (fun shard -> snd (Sched.run_stats shard))
    |> List.fold_left Sched.stats_merge Sched.stats_zero
  in
  check Alcotest.int "sessions" whole.Sched.sessions merged.Sched.sessions;
  check Alcotest.int "steps" whole.Sched.steps merged.Sched.steps;
  check Alcotest.int "completed" whole.Sched.completed merged.Sched.completed;
  check Alcotest.bool "peak_live is max of shards" true
    (merged.Sched.peak_live <= whole.Sched.peak_live)

let test_sessions_max_seconds () =
  (* Each session of a batch carries its own wall budget.  An already
     expired deadline (negative budget — zero would race the clock's
     granularity against the strict > in the guard) stops every run
     before its first step. *)
  let p = Protocols.Abp.protocol ~domain:2 in
  let results =
    Sched.run
      (List.map
         (fun seed ->
           Sched.session p ~input:[| 0; 1 |] ~strategy:(Strategy.fair_random ())
             ~rng:(Stdx.Rng.create seed) ~max_steps:3_000 ~max_seconds:(-1.0) ())
         [ 1; 2; 3 ])
  in
  check Alcotest.int "three runs" 3 (List.length results);
  List.iteri
    (fun i (r : Runner.result) ->
      check Alcotest.bool (Printf.sprintf "run %d stopped on budget" i) true
        (r.stop = Runner.Budget);
      check Alcotest.int (Printf.sprintf "run %d took no steps" i) 0 r.steps)
    results

let test_shard_partition () =
  List.iter
    (fun (jobs, n) ->
      let xs = List.init n Fun.id in
      let shards = Core.Batch.shard ~jobs xs in
      check Alcotest.(list int)
        (Printf.sprintf "jobs=%d n=%d: concat" jobs n)
        xs (List.concat shards);
      check Alcotest.bool
        (Printf.sprintf "jobs=%d n=%d: shard count" jobs n)
        true
        (List.length shards <= jobs);
      let lens = List.map List.length shards in
      check Alcotest.bool
        (Printf.sprintf "jobs=%d n=%d: balanced" jobs n)
        true
        (match (List.sort compare lens, List.rev (List.sort compare lens)) with
        | min :: _, max :: _ -> max - min <= 1
        | _ -> n = 0))
    [ (1, 10); (3, 10); (4, 4); (7, 3); (2, 0); (5, 1) ]

(* Well-typed one-job serve batches: a registry protocol, any channel
   form, config fields and input symbols mostly in range with an
   occasional value outside it, good and bad strategy spellings, and a
   small step budget; each field may also be left to its default.  Job
   specs are read before anything runs, so whatever the reader accepts
   must run to an outcome: [batch_of_json] never raises, every
   rejection names the job, and [run_batch] returns on every accepted
   batch. *)
let serve_job_gen =
  let open QCheck.Gen in
  let maybe key gen =
    frequency [ (1, return []); (4, map (fun v -> [ (key, v) ]) gen) ]
  in
  let int_field ~lo ~hi =
    map
      (fun i -> Stdx.Json.Int i)
      (frequency [ (9, int_range lo hi); (1, int_range (-2) (lo - 1)) ])
  in
  let* protocol = oneofl (Kernel.Registry.protocol_names ()) in
  let* domain = frequency [ (9, int_range 1 3); (1, int_range (-1) 0) ] in
  let* input =
    list_size (int_range 0 5)
      (frequency [ (19, int_range 0 (max 0 (domain - 1))); (1, oneofl [ -1; domain; 7 ]) ])
  in
  let* fields =
    flatten_l
      [
        maybe "channel"
          (map
             (fun c -> Stdx.Json.String c)
             (oneofl [ "perfect"; "fifo-lossy"; "dup"; "del"; "lag:0"; "lag:1"; "lag:2" ]));
        return [ ("domain", Stdx.Json.Int domain) ];
        maybe "max_len" (int_field ~lo:1 ~hi:4);
        maybe "header_space" (int_field ~lo:1 ~hi:3);
        maybe "drop_budget" (int_field ~lo:0 ~hi:2);
        maybe "window" (int_field ~lo:1 ~hi:3);
        maybe "strategy"
          (map
             (fun s -> Stdx.Json.String s)
             (oneofl
                [ "fair-random"; "round-robin"; "newest-first"; "dup-flood"; "drop:0.2";
                  "drop-first:2"; "drop:1.5"; "drop:x"; "drop-first:-1"; "nope" ]));
        maybe "seed" (map (fun i -> Stdx.Json.Int i) (int_range 0 9));
        return [];
      ]
  in
  let* max_steps = int_range 0 300 in
  return
    (Stdx.Json.Obj
       ((("protocol", Stdx.Json.String protocol)
        :: ("input", Stdx.Json.List (List.map (fun i -> Stdx.Json.Int i) input))
        :: List.concat fields)
       @ [ ("max_steps", Stdx.Json.Int max_steps) ]))

let prop_serve_specs_run =
  QCheck.Test.make ~name:"accepted serve specs run; rejected ones name the job" ~count:3000
    (QCheck.make ~print:Stdx.Json.to_string serve_job_gen)
    (fun job ->
      match Serve.batch_of_json (Stdx.Json.List [ job ]) with
      | exception e -> QCheck.Test.fail_reportf "batch_of_json raised %s" (Printexc.to_string e)
      | Error e ->
          String.starts_with ~prefix:"job 0: " e
          || QCheck.Test.fail_reportf "rejection %S does not name the job" e
      | Ok batch -> (
          match Serve.run_batch ~jobs:1 batch with
          | exception e -> QCheck.Test.fail_reportf "run_batch raised %s" (Printexc.to_string e)
          | outcomes, _ -> List.length outcomes = 1))

let () =
  Alcotest.run "sched"
    [
      ( "determinism",
        [
          Alcotest.test_case "batch = sequential at jobs 1/2/4/7" `Quick
            test_batch_matches_sequential;
          Alcotest.test_case "timeslice invariant" `Quick
            test_timeslice_invariant;
        ] );
      ( "stats",
        [
          Alcotest.test_case "histogram and counters" `Quick
            test_stats_histogram;
          Alcotest.test_case "stats_merge" `Quick test_stats_merge;
        ] );
      ( "budgets",
        [
          Alcotest.test_case "sessions thread max_seconds" `Quick
            test_sessions_max_seconds;
        ] );
      ( "sharding",
        [ Alcotest.test_case "shard partitions" `Quick test_shard_partition ] );
      ("serve specs", [ QCheck_alcotest.to_alcotest prop_serve_specs_run ]);
    ]
