(* Benchmark harness.

   Running this executable regenerates every registered reproduction
   table (E1–E15, see DESIGN.md §3 and EXPERIMENTS.md) at full parameters and
   then times the underlying machinery with Bechamel — one benchmark
   per experiment, measuring the work that experiment's table is built
   from, plus kernel micro-benchmarks.

     dune exec bench/main.exe               # tables + timings
     dune exec bench/main.exe -- --tables   # tables only
     dune exec bench/main.exe -- --micro    # timings only

   Options for the timing pass:

     --json PATH     also write the per-benchmark nanoseconds and
                     minor-words to PATH as a machine-readable JSON
                     document
     --quota SECONDS Bechamel time budget per benchmark (default 1.0;
                     lower it for a quick smoke run)
     --filter REGEX  only run benchmarks whose name matches REGEX
                     (unanchored Str syntax, e.g. --filter 'attack\|sweep');
                     errors out if nothing matches

   The sweeps honour [STP_JOBS], so e.g. [STP_JOBS=4 ... -- --micro]
   runs the census benchmark on four domains. *)

open Bechamel
open Toolkit

(* ------------------------- the tables ------------------------- *)

let print_tables () =
  Format.printf "=================================================================@.";
  Format.printf "Reproduction tables (Wang & Zuck 1989), full parameters@.";
  Format.printf "=================================================================@.@.";
  List.iter
    (fun r -> Format.printf "%a@.@." Core.Experiments.pp_result r)
    (Core.Experiments.all ());
  Format.printf "@."

(* ------------------------- the micro-benchmarks ------------------------- *)

(* One Test.make per experiment: each stages the dominant computation
   behind that experiment's table, at a size that completes in
   milliseconds so Bechamel can sample it. *)

let e1_workload () =
  (* Exhaustive verification of the tight protocol at m=2. *)
  let p = Protocols.Norep.dup ~m:2 in
  List.iter
    (fun input ->
      ignore
        (Kernel.Runner.run p ~input:(Array.of_list input)
           ~strategy:(Kernel.Strategy.fair_random ()) ~rng:(Stdx.Rng.create 1) ~max_steps:2_000
           ()))
    (Seqspace.Norep.enumerate ~m:2)

let e2_workload () =
  ignore
    (Core.Attack.search_pair
       (Protocols.Counting.protocol_on Channel.Chan.Reorder_dup ~domain:2)
       ~x1:[ 0; 1 ] ~x2:[ 1; 0 ] ())

let e3_workload () =
  ignore
    (Core.Attack.search_pair (Protocols.Norep.del ~m:2) ~x1:[ 0; 1 ] ~x2:[ 0; 0 ] ~depth:200
       ~max_sends_per_sender:4 ~max_sends_per_receiver:4 ())

let e4_workload () =
  ignore
    (Core.Bounds.measure (Protocols.Norep.del ~m:2)
       ~xs:[ [ 0 ]; [ 1 ]; [ 0; 1 ] ]
       ~strategy:(Kernel.Strategy.fair_random ()) ~seeds:[ 1; 2 ] ~max_steps:2_000 ())

let e5_workload () =
  let xset = Seqspace.Xset.All_upto { domain = 2; max_len = 3 } in
  let p = Protocols.Hybrid.protocol ~xset ~domain:2 ~drop_budget:1 ~timeout:6 () in
  ignore
    (Kernel.Runner.run p ~input:[| 1; 0; 1 |]
       ~strategy:(Kernel.Strategy.drop_after ~at:6 1 Kernel.Strategy.round_robin)
       ~rng:(Stdx.Rng.create 1) ~max_steps:100_000 ())

let e6_universe =
  lazy
    (Knowledge.Universe.sample (Protocols.Norep.dup ~m:2) ~xs:(Seqspace.Norep.enumerate ~m:2)
       ~strategies:[ Kernel.Strategy.fair_random () ]
       ~seeds:3 ~max_steps:600 ~post_roll:20)

let e6_workload () =
  let u = Lazy.force e6_universe in
  for run = 0 to 5 do
    ignore (Knowledge.Learn.learning_times u ~run)
  done

let e7_workload () =
  let p = Protocols.Stenning.protocol ~domain:2 ~max_len:4 in
  ignore
    (Kernel.Runner.run p ~input:[| 0; 1; 1; 0 |]
       ~strategy:(Kernel.Strategy.drop_rate 0.15 (Kernel.Strategy.fair_random ()))
       ~rng:(Stdx.Rng.create 1) ~max_steps:50_000 ())

(* Kernel micro-benchmarks: the primitives everything is built from. *)

let sim_step_workload =
  let p = Protocols.Norep.dup ~m:4 in
  fun () ->
    ignore
      (Kernel.Runner.run p ~input:[| 2; 0; 3; 1 |] ~strategy:Kernel.Strategy.round_robin
         ~rng:(Stdx.Rng.create 1) ~max_steps:500 ())

let alpha_workload () = ignore (Seqspace.Alpha.alpha 100)

let code_build_workload () =
  match Seqspace.Codes.build ~m:5 (Seqspace.Norep.enumerate ~m:5) with
  | Ok _ -> ()
  | Error _ -> assert false

let e8_workload () =
  ignore
    (Core.Proba.estimate
       (Protocols.Counting.resend Channel.Chan.Reorder_dup ~domain:2)
       ~input:[ 0; 1; 1 ] ~strategy:(Kernel.Strategy.fair_random ()) ~trials:5 ~max_steps:2_000
       ())

(* 40 samples ≈ a few ms of classification — big enough that a
   multicore sweep (STP_JOBS) has real work to split. *)
let e9_workload () = ignore (Core.Census.run ~samples:40 ())

let e10_workload () =
  ignore
    (Core.Attack.search_single
       (Protocols.Stenning_mod.protocol_on
          (Channel.Chan.Bounded_reorder { lag = 1 })
          ~domain:2 ~header_space:2)
       ~x:[ 0; 0; 1 ] ~depth:80 ~max_sends_per_sender:8 ~max_sends_per_receiver:8
       ~allow_drops:false ())

let e11_workload () =
  let u = Lazy.force e6_universe in
  let phi =
    Knowledge.Formula.(Knows (Sender, Knows (Receiver, Knows (Sender, Fact (Output_ge 1)))))
  in
  let table = Knowledge.Formula.tabulate u phi in
  ignore (table { Knowledge.Universe.run = 0; time = 0 })

let e12_workload () =
  ignore (Core.Spec.recoverability (Protocols.Abp.protocol ~domain:2) ~input:[ 0; 1 ] ())

(* The all-pairs sweep through the public [Attack.search] entry point,
   plain and quotiented: same pair list, same caps, the delta is the
   orbit dedup (alphabet permutations composed with the joint-space run
   swap, plus the canonicalisation overhead it pays for).  A deleting
   channel with tight send caps gives each pair a closed joint space of
   a few thousand states, where each single-run state is revisited many
   times through the per-input [Attack.Runstate] stores.  Sequential so
   the ratio isolates the quotient, not the domain pool. *)
let sweep_protocol = lazy (Protocols.Norep.del ~m:3)

let sweep_xs =
  lazy (List.filter (fun x -> List.length x >= 2) (Seqspace.Norep.enumerate ~m:3))

let sweep_caps = 3

let sweep_workload ~symm () =
  let p = Lazy.force sweep_protocol in
  ignore
    (Core.Attack.search p ~xs:(Lazy.force sweep_xs) ~depth:200
       ~max_sends_per_sender:sweep_caps ~max_sends_per_receiver:sweep_caps ~symm ~jobs:1 ())

(* The canonicalisation kernel in isolation: first-occurrence
   relabelling of every eligible m=4 pair — the exact per-pair work
   E14's orbit dedup adds on top of the raw sweep. *)
let canon_pairs = lazy (Core.Attack.eligible_pairs ~xs:(Seqspace.Norep.enumerate ~m:4))

let state_canon_workload () =
  List.iter
    (fun (x1, x2) -> ignore (Kernel.Symm.canon_pair ~m:4 x1 x2))
    (Lazy.force canon_pairs)

(* The succinct frontier's push/pop throughput: a BFS-shaped load of
   paired int keys through the chunked varint FIFO, including the
   chunk-recycling boundary crossings. *)
let frontier_pack_workload () =
  let f = Stdx.Frontier.create () in
  for round = 0 to 3 do
    for i = 0 to 4_095 do
      Stdx.Frontier.push2 f ((round * 4096) + i) (i * 131)
    done;
    for _ = 0 to 4_095 do
      ignore (Stdx.Frontier.pop2 f : int * int)
    done
  done

(* The pager under the same BFS-shaped load: a one-byte budget clamps
   the pool to its two-chunk floor, so each round's ~20 KB of queued
   ids rotate through the unlinked spill file — the write + page-in
   overhead over [frontier_pack] is the out-of-core tax. *)
let frontier_spill_workload () =
  let f = Stdx.Frontier.create ~mem_budget_bytes:1 () in
  for round = 0 to 3 do
    for i = 0 to 4_095 do
      Stdx.Frontier.push2 f ((round * 4096) + i) (i * 131)
    done;
    for _ = 0 to 4_095 do
      ignore (Stdx.Frontier.pop2 f : int * int)
    done
  done;
  Stdx.Frontier.close f

(* The fault-injection pipeline end to end: battery construction,
   per-case split-RNG runs, recovery verdicts, report folding.
   Sequential (jobs=1) so the number isolates the engine, not the
   domain pool. *)
let soak_workload =
  let cases = lazy (Faults.Soak.default_battery ~random_plans:1 ~seed:5 ()) in
  fun () -> ignore (Faults.Soak.run ~jobs:1 ~seed:5 (Lazy.force cases))

(* The self-stabilisation sweep end to end: every corrupted start of
   the stabilising ABP as a session, stabilisation verdicts
   folded into a worst-case time-to-stabilise.  Sequential (jobs=1) so
   the number isolates the sweep engine, not the domain pool. *)
let stab_sweep_workload =
  let p = lazy (Protocols.Abp_stab.protocol ~domain:2 ~max_len:4) in
  fun () ->
    ignore
      (Core.Stab.sweep ~jobs:1 (Lazy.force p) ~input:[| 0; 1; 1; 0 |] ~within:256 ~seed:7 ()
        : Core.Stab.sweep)

(* The widest corrupted-start space in the registry: ladder's rank ×
   echo enumeration (13 × 19 points on the small xset) swept to
   completion.  Exercises the per-point drive loop over a perturb
   space an order of magnitude larger than abp-stab's. *)
let stab_sweep_ladder_workload =
  let p =
    lazy
      (Protocols.Ladder.protocol
         ~xset:(Seqspace.Xset.All_upto { domain = 2; max_len = 2 })
         ~drop_budget:1)
  in
  fun () ->
    ignore
      (Core.Stab.sweep ~jobs:1 (Lazy.force p) ~input:[| 0; 1 |] ~within:256 ~seed:7 ()
        : Core.Stab.sweep)

(* Sessions at batch scale: a 1k-session mixed battery (three
   protocols × stateless strategies × split seeds), each run to its
   end by Sched.run on one domain.  Sessions are rebuilt every
   iteration (a session owns its rng, which its run advances), so the
   number is build + run throughput — the per-domain work `stp serve`
   spreads across the pool. *)
let sched_batch_workload =
  let abp = Protocols.Abp.protocol ~domain:2 in
  let norep = Protocols.Norep.del ~m:2 in
  let counting = Protocols.Counting.resend Channel.Chan.Reorder_dup ~domain:2 in
  fun () ->
    let sessions =
      List.init 1_000 (fun i ->
          let p, input =
            match i mod 3 with
            | 0 -> (abp, [| 0; 1 |])
            | 1 -> (norep, [| 1; 0 |])
            | _ -> (counting, [| 0; 1 |])
          in
          let strategy =
            if i mod 2 = 0 then Kernel.Strategy.round_robin else Kernel.Strategy.fair_random ()
          in
          Kernel.Sched.session p ~input ~strategy ~rng:(Stdx.Rng.create (i + 1)) ~max_steps:100
            ())
    in
    ignore (List.map Kernel.Sched.run sessions : Kernel.Sched.result list)

(* The serve request path end to end on the committed example batch
   (examples/serve_jobs.json, compiled in): JSON text to the
   results-artifact text — parse, resolve, run every job's session,
   build the report, print it.  The one micro that exercises the JSON
   reader and the session step together. *)
let serve_batch_workload () =
  let ok = function Ok v -> v | Error e -> failwith ("serve_batch: " ^ e) in
  let jobs = ok (Serve.batch_of_json (ok (Stdx.Json.parse Serve_jobs_text.text))) in
  let outcomes, _ = Serve.run_batch ~jobs:1 jobs in
  ignore
    (Stdx.Json.to_string
       (Stdx.Report.to_json (Serve.results_report ~label:"serve_jobs" outcomes))
      : string)

let benches =
  [
    ("e1_alpha_tightness", e1_workload);
    ("e2_dup_attack", e2_workload);
    ("e3_del_attack", e3_workload);
    ("e4_boundedness", e4_workload);
    ("e5_weak_boundedness", e5_workload);
    ("e6_knowledge", e6_workload);
    ("e7_throughput", e7_workload);
    ("e8_probabilistic", e8_workload);
    ("e9_census", e9_workload);
    ("e10_crossover_cell", e10_workload);
    ("e11_nested_knowledge", e11_workload);
    ("e12_recoverability", e12_workload);
    ("soak_battery", soak_workload);
    ("stab_sweep", stab_sweep_workload);
    ("stab_sweep_ladder", stab_sweep_ladder_workload);
    ("sched_batch", sched_batch_workload);
    ("serve_batch", serve_batch_workload);
    ("sweep_allpairs_swapsymm", sweep_workload ~symm:true);
    ("sweep_allpairs_nosymm", sweep_workload ~symm:false);
    ("state_canon", state_canon_workload);
    ("frontier_pack", frontier_pack_workload);
    ("frontier_spill", frontier_spill_workload);
    ("kernel_full_run", sim_step_workload);
    ("alpha_100", alpha_workload);
    ("mu_code_build_m5", code_build_workload);
  ]

(* [--filter] narrows the suite by an unanchored [Str] regexp over the
   bare benchmark names (the report rows carry the ["stp/"] prefix). *)
let tests ?filter () =
  let keep =
    match filter with
    | None -> fun _ -> true
    | Some pat ->
        let re = Str.regexp pat in
        fun name ->
          (try
             ignore (Str.search_forward re name 0 : int);
             true
           with Not_found -> false)
  in
  let selected = List.filter (fun (name, _) -> keep name) benches in
  if selected = [] then
    failwith
      (Printf.sprintf "--filter %S matches no benchmark" (Option.value ~default:"" filter));
  Test.make_grouped ~name:"stp"
    (List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) selected)

(* The timings as the shared report IR (see lib/stdx/report.mli): the
   same schema-versioned artifact the CLI's --json flags produce, so
   one validator covers both. *)
let bench_report ~quota rows =
  let module R = Stdx.Report in
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  let generated =
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
      tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
  in
  let t =
    R.table_cols ~title:"time per iteration"
      [
        R.column "benchmark";
        R.column ~align:R.Right ~unit_:"ns" "nanos_per_iter";
        R.column ~align:R.Right ~unit_:"words" "minor_words_per_iter";
      ]
  in
  List.iter (fun (name, ns, mw) -> R.row t [ R.str name; R.float ns; R.float mw ]) rows;
  R.make ~id:"bench" ~title:"micro-benchmark timings (Bechamel, monotonic clock)"
    [
      R.Metrics
        {
          title = None;
          pairs =
            [
              ("generated_utc", R.str generated);
              ("quota_seconds", R.float quota);
              ("jobs", R.int (Core.Par.default_jobs ()));
            ];
        };
      R.finish t;
    ]

let write_json path ~quota rows =
  let oc = open_out path in
  output_string oc (Stdx.Json.to_string (Stdx.Report.to_json (bench_report ~quota rows)));
  output_char oc '\n';
  close_out oc;
  Format.printf "wrote %s@." path

let run_micro ?json ?filter ~quota () =
  Format.printf "=================================================================@.";
  Format.printf "Micro-benchmarks (Bechamel, monotonic clock + minor words)@.";
  Format.printf "=================================================================@.";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let clock = Instance.monotonic_clock in
  let minor = Instance.minor_allocated in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:true ~compaction:false ()
  in
  let raw = Benchmark.all cfg [ clock; minor ] (tests ?filter ()) in
  let estimate results name =
    match Hashtbl.find_opt results name with
    | None -> nan
    | Some ols -> (
        match Analyze.OLS.estimates ols with Some (t :: _) -> t | Some [] | None -> nan)
  in
  let clock_results = Analyze.all ols clock raw in
  let minor_results = Analyze.all ols minor raw in
  let rows =
    Hashtbl.fold (fun name _ acc -> name :: acc) clock_results []
    |> List.sort String.compare
    |> List.map (fun name -> (name, estimate clock_results name, estimate minor_results name))
  in
  let pretty ns =
    if Float.is_nan ns then "n/a"
    else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
    else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
    else Printf.sprintf "%.0f ns" ns
  in
  let pretty_words w =
    if Float.is_nan w then "n/a"
    else if w > 1e6 then Printf.sprintf "%.2fM" (w /. 1e6)
    else if w > 1e3 then Printf.sprintf "%.1fk" (w /. 1e3)
    else Printf.sprintf "%.0f" w
  in
  let module R = Stdx.Report in
  let table =
    {
      R.title = "per iteration";
      columns =
        [
          R.column "benchmark";
          R.column ~align:R.Right "time";
          R.column ~align:R.Right "minor words";
        ];
      rows =
        List.map
          (fun (name, ns, mw) -> R.Cells [ R.str name; R.str (pretty ns); R.str (pretty_words mw) ])
          rows;
    }
  in
  print_string (R.table_to_text table);
  print_newline ();
  Option.iter (fun path -> write_json path ~quota rows) json

let () =
  let args = Array.to_list Sys.argv in
  (* Pull out the valued options first; the remaining flags keep the
     original positional-free behaviour. *)
  let rec split flags json quota filter = function
    | [] -> (List.rev flags, json, quota, filter)
    | "--json" :: path :: rest -> split flags (Some path) quota filter rest
    | "--json" :: [] -> failwith "--json needs a PATH argument"
    | "--quota" :: s :: rest -> (
        match float_of_string_opt s with
        | Some q when q > 0.0 -> split flags json q filter rest
        | Some _ | None -> failwith "--quota needs a positive number of seconds")
    | "--quota" :: [] -> failwith "--quota needs a SECONDS argument"
    | "--filter" :: pat :: rest -> split flags json quota (Some pat) rest
    | "--filter" :: [] -> failwith "--filter needs a REGEX argument"
    | a :: rest -> split (a :: flags) json quota filter rest
  in
  let args, json, quota, filter = split [] None 1.0 None (List.tl args) in
  (* Fail on an unwritable --json path or an unmatched --filter now,
     not after minutes of benchmarking. *)
  Option.iter (fun path -> close_out (open_out path)) json;
  Option.iter (fun f -> ignore (tests ~filter:f () : Test.t)) filter;
  let tables = (not (List.mem "--micro" args)) || List.mem "--tables" args in
  let micro = (not (List.mem "--tables" args)) || List.mem "--micro" args in
  if tables then print_tables ();
  if micro then run_micro ?json ?filter ~quota ()
