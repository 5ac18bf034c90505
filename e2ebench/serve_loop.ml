(* serve-loop: the only request-serving path.  An op is one batch of
   100 seeded jobs taken from JSON text to results-artifact text:
   Json.parse, Serve.batch_of_json, Serve.run_batch ~jobs:1,
   Serve.results_report, Report.to_json and Json.to_string — the spool
   daemon's steady state without its poll sleep or disk writes.  One
   caller sends the next batch only once the previous artifact exists (a
   closed loop).  Sessions step Sim.apply one move at a time with no
   memo, the opposite use of the kernel from the two BFS workloads, and
   the JSON and report layers do their work here. *)

open Harness

let name = "serve-loop"

(* Ops cycle through this many distinct batches. *)
let pool = 64

type t = { texts : string array; pins : Digest.t option array }

let prepare ~seed =
  let texts = Array.init pool (fun index -> Gen.batch ~seed ~index) in
  fun () -> { texts; pins = Array.make pool None }

let repeat_class _ i = i mod pool

let pipeline t ~jobs tracer index =
  let text = t.texts.(index) in
  let json =
    match Spans.span tracer "json.parse" (fun () -> Json.parse text) with
    | Ok j -> j
    | Error e -> raise (Wrong ("batch does not parse: " ^ e))
  in
  let batch =
    match Spans.span tracer "serve.resolve" (fun () -> Serve.batch_of_json json) with
    | Ok b -> b
    | Error e -> raise (Wrong ("batch does not resolve: " ^ e))
  in
  let outcomes, stats = Spans.span tracer "sched.run" (fun () -> Serve.run_batch ~jobs batch) in
  let artifact =
    Spans.span tracer "report.render" (fun () ->
        Json.to_string
          (Report.to_json (Serve.results_report ~label:(Printf.sprintf "batch-%d" index) outcomes)))
  in
  (outcomes, stats, artifact)

(* Every job of a protocol that is correct on its channel, run without a
   fault plan, ends safe and complete; and a batch's artifact is the
   same bytes every time it runs.  The first run of each batch pins its
   digest. *)
let check t index (outcomes, (stats : Kernel.Sched.stats), artifact) =
  expect
    (List.length outcomes = Gen.jobs_per_batch)
    "batch %d resolved %d jobs" index (List.length outcomes);
  List.iter
    (fun (o : Serve.outcome) ->
      if o.job.plan = None && Gen.expect_clean_success o.job.protocol_name then
        expect
          (o.verdict.Core.Verdict.safe && o.verdict.Core.Verdict.complete)
          "batch %d job %s (%s) did not end safe and complete" index o.job.label
          o.job.protocol_name)
    outcomes;
  let digest = Digest.string artifact in
  (match t.pins.(index) with
  | None -> t.pins.(index) <- Some digest
  | Some pin -> expect (pin = digest) "batch %d artifact differs from its pinned digest" index);
  [
    ("json.bytes_in", String.length t.texts.(index));
    ("report.bytes_out", String.length artifact);
    ("sched.steps", stats.steps);
    ("sched.ticks", stats.ticks);
    ("sched.peak_live", stats.peak_live);
    ("sched.stop_completed", stats.completed);
    ("sched.stop_quiescent", stats.quiescent);
    ("sched.stop_budget", stats.budget);
    ("sched.stop_strategy_end", stats.strategy_end);
  ]

let op t tracer i =
  let index = repeat_class t i in
  let result = pipeline t ~jobs:1 tracer index in
  fun () -> check t index result

let layers t tr ~plain ~traced tally =
  (* Core.Par and the determinism contract together: each batch of the
     pool once more at jobs 1 and at jobs 2; the artifacts must be the
     same bytes. *)
  let par = Spans.create () in
  for index = 0 to pool - 1 do
    ignore
      (attempt tally "jobs-2 batch" (fun () ->
           let artifact jobs =
             Spans.set_op par jobs;
             let _, _, a = pipeline t ~jobs (Some par) index in
             a
           in
           let a1 = artifact 1 in
           expect (String.equal a1 (artifact 2)) "batch %d artifact differs at jobs 2" index)
        : unit option)
  done;
  let run_time jobs =
    List.fold_left
      (fun acc s -> if s.Spans.op = jobs then acc +. Spans.duration s else acc)
      0.0 (Spans.named par "sched.run")
  in
  (* Per-batch counts averaged over one pass of the pool. *)
  let first_pass = List.filteri (fun k _ -> k < pool) traced in
  let mean name =
    ratio
      (float_of_int (List.fold_left (fun acc s -> acc + List.assoc name s.counts) 0 first_pass))
      (float_of_int (List.length first_pass))
  in
  let med name = Stat.median (Spans.durations tr name) in
  let steps = List.fold_left (fun acc s -> acc + List.assoc "sched.steps" s.counts) 0 traced in
  let run_total = List.fold_left ( +. ) 0.0 (Spans.durations tr "sched.run") in
  let plain_words =
    List.filteri (fun k _ -> k < pool) plain
    |> List.map (fun s -> float_of_int (List.assoc "gc.minor_words" s.counts))
  in
  [
    ms "json.parse_ms" (med "json.parse");
    num "json.bytes_in" "B" (mean "json.bytes_in");
    ms "serve.resolve_ms" (med "serve.resolve");
    ms "sched.run_ms" (med "sched.run");
    num "sched.ns_per_step" "ns" (ratio (run_total *. 1e9) (float_of_int steps));
    num "sched.steps" "count" (mean "sched.steps");
    num "sched.ticks" "count" (mean "sched.ticks");
    count "sched.peak_live"
      (List.fold_left (fun acc s -> max acc (List.assoc "sched.peak_live" s.counts)) 0 first_pass);
    num "sched.stop_completed" "count" (mean "sched.stop_completed");
    num "sched.stop_quiescent" "count" (mean "sched.stop_quiescent");
    num "sched.stop_budget" "count" (mean "sched.stop_budget");
    num "sched.stop_strategy_end" "count" (mean "sched.stop_strategy_end");
    ms "report.render_ms" (med "report.render");
    num "report.bytes_out" "B" (mean "report.bytes_out");
    num "gc.minor_words_per_job" "words"
      (ratio (List.fold_left ( +. ) 0.0 plain_words)
         (float_of_int (List.length plain_words * Gen.jobs_per_batch)));
    num "par.speedup_j2" "ratio" (ratio (run_time 1) (run_time 2));
  ]
