(* Deterministic-batch tests for Kernel.Sched sessions.

   The contract (see the determinism note in Kernel.Sched): a batch of
   N sessions, [Par.map ~jobs Sched.run], produces results
   byte-identical to N sequential Runner.run calls at every --jobs
   count, because sessions own their rng and Sim.apply is pure.  These
   tests pin that against a mixed battery of protocols, strategies,
   and seeds — the property the serve daemon and every batch engine
   (Stab, Proba, Bounds, Harness, Soak) rests on. *)

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
      let batch = Core.Par.map ~jobs Sched.run (List.map session_of_spec specs) in
      check Alcotest.int
        (Printf.sprintf "jobs=%d: result count" jobs)
        (List.length baseline) (List.length batch);
      List.iteri
        (fun i (a, b) ->
          check_result_eq (Printf.sprintf "jobs=%d session=%d" jobs i) a b)
        (List.combine baseline batch))
    [ 1; 2; 4; 7 ]

let test_stats_histogram () =
  let specs = battery () in
  let results = List.map Sched.run (List.map session_of_spec specs) in
  let stats = Sched.stats_of results in
  check Alcotest.int "sessions" (List.length specs) stats.Sched.sessions;
  check Alcotest.int "peak_live" (List.length specs) stats.Sched.peak_live;
  check Alcotest.int "histogram sums to sessions" stats.Sched.sessions
    (stats.Sched.completed + stats.Sched.quiescent + stats.Sched.budget
   + stats.Sched.strategy_end);
  check Alcotest.int "steps = sum of per-session steps"
    (List.fold_left (fun acc (r : Sched.result) -> acc + r.steps) 0 results)
    stats.Sched.steps

let test_stats_merge () =
  let specs = battery () in
  (* A session's run advances its rng, so each batch below is built
     afresh. *)
  let stats_of specs = Sched.stats_of (List.map Sched.run (List.map session_of_spec specs)) in
  let whole = stats_of specs in
  let merged =
    List.init 3 (fun k -> List.filteri (fun i _ -> i mod 3 = k) specs)
    |> List.map stats_of
    |> List.fold_left Sched.stats_merge Sched.stats_zero
  in
  check Alcotest.int "sessions" whole.Sched.sessions merged.Sched.sessions;
  check Alcotest.int "steps" whole.Sched.steps merged.Sched.steps;
  check Alcotest.int "completed" whole.Sched.completed merged.Sched.completed;
  check Alcotest.bool "peak_live is the largest part" true
    (merged.Sched.peak_live <= whole.Sched.peak_live)

let test_sessions_max_seconds () =
  (* Each session of a batch carries its own wall budget.  An already
     expired deadline (negative budget — zero would race the clock's
     granularity against the strict > in the guard) stops every run
     before its first step. *)
  let p = Protocols.Abp.protocol ~domain:2 in
  let results =
    List.map
      (fun seed ->
        Sched.run
          (Sched.session p ~input:[| 0; 1 |] ~strategy:(Strategy.fair_random ())
             ~rng:(Stdx.Rng.create seed) ~max_steps:3_000 ~max_seconds:(-1.0) ()))
      [ 1; 2; 3 ]
  in
  check Alcotest.int "three runs" 3 (List.length results);
  List.iteri
    (fun i (r : Runner.result) ->
      check Alcotest.bool (Printf.sprintf "run %d stopped on budget" i) true
        (r.stop = Runner.Budget);
      check Alcotest.int (Printf.sprintf "run %d took no steps" i) 0 r.steps)
    results

let test_deadline_per_session () =
  (* A session's wall budget starts at its own first step: in a
     sequential batch, a session behind a slow one still gets all of
     its budget.  The slow session spends 0.3 s in its one
     strategy call; the budgeted one needs microseconds of its 0.25 s. *)
  let p = Protocols.Abp.protocol ~domain:2 in
  let slow =
    {
      Strategy.name = "slow";
      choose =
        (fun rng p g enabled ->
          let t0 = Stdx.Clock.now () in
          while Stdx.Clock.now () -. t0 < 0.3 do
            ()
          done;
          Strategy.round_robin.Strategy.choose rng p g enabled);
    }
  in
  let results =
    List.map Sched.run
      [
        Sched.session p ~input:[| 0; 1 |] ~strategy:slow ~rng:(Stdx.Rng.create 1) ~max_steps:1
          ();
        Sched.session p ~input:[| 0; 1 |] ~strategy:Strategy.round_robin
          ~rng:(Stdx.Rng.create 2) ~max_steps:3_000 ~max_seconds:0.25 ();
      ]
  in
  match results with
  | [ _; budgeted ] ->
      check Alcotest.string "the budgeted session completed" "completed"
        (Format.asprintf "%a" Runner.pp_stop budgeted.stop)
  | _ -> Alcotest.fail "two results expected"

(* 100 jobs: examples/serve_jobs.json's four, 25 times over with
   fresh seeds. *)
let hundred_jobs () =
  let specs =
    [|
      {|"protocol":"abp","channel":"fifo-lossy","domain":2,"input":[0,1,1,0],"strategy":"round-robin"|};
      {|"protocol":"norep","channel":"dup","domain":3,"input":[0,1,2]|};
      {|"protocol":"stenning","channel":"fifo-lossy","domain":2,"max_len":4,"input":[0,1,0,1],"strategy":"drop:0.15"|};
      {|"protocol":"abp","channel":"fifo-lossy","domain":2,"input":[0,1,1,0],"strategy":"round-robin","within":64,"plan":{"name":"drop1","events":[{"kind":"drop-burst","at":6,"target":"to-receiver","count":1}]}|};
    |]
  in
  let job i = Printf.sprintf {|{%s,"seed":%d,"max_steps":20000}|} specs.(i mod 4) (i + 1) in
  let text = "[" ^ String.concat "," (List.init 100 job) ^ "]" in
  match Result.bind (Stdx.Json.parse text) Serve.batch_of_json with
  | Ok batch -> batch
  | Error e -> Alcotest.fail e

let test_serve_stats_of_results () =
  (* Serve telemetry is a function of the results alone: the same at
     every job count, and what [stats_of] makes of the outcomes. *)
  let batch = hundred_jobs () in
  let outcomes, stats = Serve.run_batch ~jobs:1 batch in
  let _, stats3 = Serve.run_batch ~jobs:3 batch in
  check Alcotest.bool "jobs 1 and jobs 3 stats are equal" true (stats = stats3);
  check Alcotest.bool "stats = stats_of results" true
    (stats = Sched.stats_of (List.map (fun (o : Serve.outcome) -> o.result) outcomes));
  check Alcotest.int "sessions" 100 stats.Sched.sessions;
  check Alcotest.int "ticks = sessions" stats.Sched.sessions stats.Sched.ticks

(* Well-typed one-job serve batches: a registry protocol, any channel
   form, config fields and input symbols mostly in range with an
   occasional value outside it, good and bad strategy spellings, a
   recovery window, a post-roll, a fault plan over every event kind,
   and a small step budget; each field may also be left to its
   default.  Job specs are read before anything runs, so whatever the
   reader accepts must run to an outcome: [batch_of_json] never raises,
   every rejection names the job, and [run_batch] returns on every
   accepted batch.  On an accepted plan job the recovery verdict agrees
   with the time to recover, and every accepted event's window ends no
   earlier than it starts. *)

(* Mostly in [lo, hi]; now and then negative or near max_int. *)
let hostile_int ~lo ~hi =
  let open QCheck.Gen in
  frequency
    [
      (12, int_range lo hi);
      (1, int_range (-3) (lo - 1));
      (1, map (fun d -> max_int - d) (int_range 0 3));
    ]

let plan_gen =
  let open QCheck.Gen in
  let module J = Stdx.Json in
  let num key = map (fun i -> (key, J.Int i)) in
  let event =
    let* kind =
      oneofl
        [ "drop-burst"; "dup-burst"; "reorder-storm"; "blackout"; "crash-restart"; "corrupt-state" ]
    in
    let* at = num "at" (hostile_int ~lo:0 ~hi:30) in
    let* target = map (fun t -> ("target", J.String t)) (oneofl [ "to-receiver"; "to-sender" ]) in
    let* who = map (fun w -> ("who", J.String w)) (oneofl [ "sender"; "receiver" ]) in
    let* count = num "count" (hostile_int ~lo:1 ~hi:4) in
    let* len = num "len" (hostile_int ~lo:1 ~hi:6) in
    let* index = num "index" (hostile_int ~lo:0 ~hi:5) in
    let fields =
      match kind with
      | "drop-burst" | "dup-burst" -> [ at; target; count ]
      | "reorder-storm" | "blackout" -> [ at; len ]
      | "crash-restart" -> [ at; who ]
      | _ -> [ at; who; index ]
    in
    return (J.Obj (("kind", J.String kind) :: fields))
  in
  map
    (fun events -> J.Obj [ ("name", J.String "p"); ("events", J.List events) ])
    (list_size (int_range 0 3) event)

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
        maybe "within" (map (fun i -> Stdx.Json.Int i) (hostile_int ~lo:0 ~hi:200));
        maybe "post_roll" (map (fun i -> Stdx.Json.Int i) (hostile_int ~lo:0 ~hi:20));
        maybe "plan" plan_gen;
      ]
  in
  let* max_steps = int_range 0 300 in
  return
    (Stdx.Json.Obj
       ((("protocol", Stdx.Json.String protocol)
        :: ("input", Stdx.Json.List (List.map (fun i -> Stdx.Json.Int i) input))
        :: List.concat fields)
       @ [ ("max_steps", Stdx.Json.Int max_steps) ]))

let plan_checks (o : Serve.outcome) =
  match o.job.plan with
  | None -> true
  | Some plan ->
      let recovered = o.verdict.Core.Verdict.recovered in
      (recovered = Some (match o.ttr with Some t -> t <= o.job.within | None -> false)
      || QCheck.Test.fail_reportf "recovered %s but ttr %s within %d"
           (match recovered with Some r -> string_of_bool r | None -> "-")
           (match o.ttr with Some t -> string_of_int t | None -> "-")
           o.job.within)
      && List.for_all
           (fun e ->
             let first, last = Faults.Plan.window e in
             last >= first
             || QCheck.Test.fail_reportf "accepted event %s has window (%d, %d)"
                  (Faults.Plan.to_string { plan with events = [ e ] })
                  first last)
           plan.Faults.Plan.events

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
          | outcomes, _ -> List.length outcomes = 1 && List.for_all plan_checks outcomes))

let () =
  Alcotest.run "sched"
    [
      ( "determinism",
        [
          Alcotest.test_case "batch = sequential at jobs 1/2/4/7" `Quick
            test_batch_matches_sequential;
        ] );
      ( "stats",
        [
          Alcotest.test_case "histogram and counters" `Quick
            test_stats_histogram;
          Alcotest.test_case "stats_merge" `Quick test_stats_merge;
          Alcotest.test_case "serve stats are a function of the results" `Quick
            test_serve_stats_of_results;
        ] );
      ( "budgets",
        [
          Alcotest.test_case "sessions thread max_seconds" `Quick
            test_sessions_max_seconds;
          Alcotest.test_case "a deadline starts with its session" `Quick
            test_deadline_per_session;
        ] );
      ("serve specs", [ QCheck_alcotest.to_alcotest prop_serve_specs_run ]);
    ]
