(* stp — command-line driver for the sequence-transmission-problem
   reproduction (Wang & Zuck, PODC 1989).

   Subcommands:
     alpha        print the alpha(m) bound table
     simulate     run one protocol / input / schedule and show the outcome
     attack       run the product impossibility search on a protocol
     knowledge    print a knowledge (t_i) timeline for a protocol instance
     verify       batch-verify a protocol over its allowable set
     recover      dead-state (Property 2) analysis
     census       sample random protocols at m=1 (E9)
     experiments  run the E1-E17 reproduction experiments
     soak         fault-injection soak battery with recovery verdicts
                  (--stab swaps in the corrupted-start battery)
     stab         corrupted-start stabilisation sweep over a protocol's
                  declared perturb space, optionally with the exact
                  corrupted-root witness search
     serve        batch daemon, one session per job: JSON job specs in,
                  report artifacts + cumulative telemetry out
     validate     check a --json artifact against the report schema
                  (exits non-zero when any report carries ok=false)

   Protocols and experiments are resolved through {!Kernel.Registry}
   (each module registers itself at load time), and channel kinds
   through {!Channel.Chan.of_string} — this file holds no hard-coded
   lists.  Every subcommand that prints a report also accepts
   [--json PATH] to write the same data as a schema-versioned
   {!Stdx.Report} artifact. *)

open Cmdliner
module Chan = Channel.Chan
module Registry = Kernel.Registry
module Report = Stdx.Report
module Strategy = Kernel.Strategy

(* ---------------- shared argument parsing ---------------- *)

let ( let* ) r f = match r with Ok v -> f v | Error e -> `Error (false, e)

let input_conv =
  let parse s =
    if String.trim s = "" then Ok []
    else
      try Ok (List.map int_of_string (String.split_on_char ',' (String.trim s)))
      with Failure _ -> Error (`Msg "input must be comma-separated integers, e.g. 0,2,1")
  in
  let print ppf xs =
    Format.fprintf ppf "%s" (String.concat "," (List.map string_of_int xs))
  in
  Arg.conv (parse, print)

let channel_conv =
  let parse s =
    match Chan.of_string s with
    | Some k -> Ok k
    | None ->
        Error
          (`Msg
             (Printf.sprintf "channel must be one of: %s"
                (String.concat ", " (Registry.channel_forms ()))))
  in
  let print ppf k = Format.pp_print_string ppf (Chan.to_string k) in
  Arg.conv (parse, print)

let protocol_arg ?(default = "norep") ?(doc = "Protocol to run (any name in the registry).") () =
  Arg.(
    value
    & opt (enum (List.map (fun n -> (n, n)) (Registry.protocol_names ()))) default
    & info [ "p"; "protocol" ] ~doc)

let max_len_arg = Arg.(value & opt int 4 & info [ "max-len" ] ~doc:"Maximum input length.")

let header_space_arg =
  Arg.(value & opt int 2 & info [ "header-space" ] ~doc:"Header space for stenning-mod.")

let drop_budget_arg =
  Arg.(value & opt int 1 & info [ "drop-budget" ] ~doc:"Deletion budget B for ladder/hybrid.")

let window_arg =
  Arg.(
    value & opt int 2
    & info [ "window" ] ~doc:"Pipelining window for go-back-n / selective-repeat.")

(* The attack surface defaults to reorder+dup at d=3; [stab] passes its
   own defaults. *)
let config_term ?(channel = Chan.Reorder_dup) ?(domain = 3) () =
  let make channel domain max_len header_space drop_budget window =
    { Registry.channel; domain; max_len; header_space; drop_budget; window }
  in
  let channel =
    Arg.(value & opt channel_conv channel & info [ "c"; "channel" ] ~doc:"Channel kind.")
  in
  let domain =
    Arg.(
      value & opt int domain
      & info [ "d"; "domain" ] ~doc:"Data domain size |D| (also m for norep).")
  in
  Term.(
    const make $ channel $ domain $ max_len_arg $ header_space_arg $ drop_budget_arg
    $ window_arg)

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.")

let jobs_arg =
  Arg.(
    value
    & opt int (Core.Par.default_jobs ())
    & info [ "j"; "jobs" ]
        ~doc:
          "Worker domains for the sweep (default: the $(b,STP_JOBS) environment variable, or 1). \
           Results are identical at every job count.")

let max_steps_arg = Arg.(value & opt int 50_000 & info [ "max-steps" ] ~doc:"Step budget.")

let strategy_arg =
  Arg.(
    value & opt string "fair-random"
    & info [ "s"; "strategy" ]
        ~doc:
          (Printf.sprintf "Schedule: %s (drop:P drops with probability P over fair-random)."
             (String.concat ", " Strategy.forms)))

(* {!Registry.check_input} over several inputs: the message names the
   input it refuses. *)
let check_inputs config p xs =
  List.fold_left
    (fun acc x ->
      Result.bind acc (fun () ->
          Result.map_error
            (Printf.sprintf "input %s: %s" (Seqspace.Xset.sequence_text x))
            (Registry.check_input config p (Array.of_list x))))
    (Ok ()) xs

(* ---------------- report output ---------------- *)

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"PATH"
        ~doc:"Also write the report as a schema-versioned JSON artifact to $(docv).")

let format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json); ("csv", `Csv) ]) `Text
    & info [ "format" ] ~doc:"Stdout format: $(b,text), $(b,json), or $(b,csv).")

(* The --json artifact, when a path is given. *)
let write_json path json =
  match path with
  | None -> Ok ()
  | Some path -> (
      try
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc (Stdx.Json.to_string json);
            Out_channel.output_char oc '\n');
        Ok ()
      with Sys_error e -> Error (Printf.sprintf "cannot write artifact: %s" e))

(* Stdout in the --format: [text] per report (default: its text
   rendering), the [json] value, or each report's CSV. *)
let print_reports ?(text = fun r -> print_string (Report.to_text r)) format json reports =
  match format with
  | `Text -> List.iter text reports
  | `Json ->
      print_string (Stdx.Json.to_string json);
      print_newline ()
  | `Csv -> List.iter (fun r -> print_string (Report.to_csv r)) reports

(* ---------------- alpha ---------------- *)

let alpha_report m_max =
  let t =
    Report.table ~title:"alpha(m) = m! * sum_{k<=m} 1/k!  (Wang & Zuck 1989)"
      [ ("m", Report.Right); ("alpha(m)", Report.Right) ]
  in
  List.iter
    (fun (m, a) -> Report.row t [ Report.int m; Report.bignat a ])
    (Seqspace.Alpha.table m_max);
  Report.make ~id:"alpha" ~title:"the tight bound alpha(m)" [ Report.finish t ]

let alpha_run m_max format json =
  let r = alpha_report m_max in
  let* () = write_json json (Report.to_json r) in
  (* The table text, then a blank line, as it has always printed. *)
  print_reports
    ~text:(fun r ->
      print_string (Report.to_text_body r);
      print_newline ())
    format (Report.to_json r) [ r ];
  `Ok ()

let alpha_cmd =
  let m_max = Arg.(value & opt int 20 & info [ "m" ] ~doc:"Largest m to tabulate.") in
  Cmd.v
    (Cmd.info "alpha" ~doc:"Print the tight bound alpha(m).")
    Term.(ret (const alpha_run $ m_max $ format_arg $ json_arg))

(* ---------------- simulate ---------------- *)

let simulate_run protocol config input strategy seed max_steps verbose json =
  let* p = Registry.build_protocol ~name:protocol config in
  let* () = Registry.check_input config p (Array.of_list input) in
  let* strategy = Strategy.of_string strategy in
  let result =
    Kernel.Runner.run p ~input:(Array.of_list input) ~strategy ~rng:(Stdx.Rng.create seed)
      ~max_steps ()
  in
  let trace = result.Kernel.Runner.trace in
  Format.printf "%a@." Kernel.Trace.pp_summary trace;
  Format.printf "stop: %a, output: %a@." Kernel.Runner.pp_stop result.Kernel.Runner.stop
    Seqspace.Xset.pp_sequence
    (Kernel.Global.output (Kernel.Trace.final trace));
  if verbose then Format.printf "%s" (Kernel.Render.chart trace);
  let v = Core.Verdict.of_result result in
  Format.printf "verdict: %a@." Core.Verdict.pp v;
  let* () = write_json json (Report.to_json (Core.Verdict.to_report v)) in
  if Core.Verdict.all_good v then `Ok () else `Error (false, "run was not safe and complete")

let simulate_cmd =
  let input =
    Arg.(value & opt input_conv [ 0; 1; 2 ] & info [ "i"; "input" ] ~doc:"Input sequence.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every move.") in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run one protocol instance and report safety/liveness.")
    Term.(
      ret
        (const simulate_run $ protocol_arg () $ config_term () $ input $ strategy_arg $ seed_arg
       $ max_steps_arg $ verbose $ json_arg))

(* ---------------- attack ---------------- *)

let attack_run protocol config x1 x2 xs depth single symm mem_budget jobs json =
  let* p = Registry.build_protocol ~name:protocol config in
  let* () =
    if xs <> [] then check_inputs config p xs
    else if single then Registry.check_input config p (Array.of_list x1)
    else check_inputs config p [ x1; x2 ]
  in
  (* Resource counters ride along only when --mem-budget is given: the
     report block they add is budget-invariant (spilled and resident
     runs at different budgets write byte-identical artifacts), but
     frontier peaks are not invariant under the symmetry quotient's
     reordering, so unconditionally adding them would break the
     symm/nosymm artifact cmp. *)
  let stats = Option.map (fun _ -> Core.Attack.Stats.create ()) mem_budget in
  let print_spill_summary () =
    match (mem_budget, stats) with
    | Some budget, Some st ->
        let s = Core.Attack.Stats.snapshot st in
        Format.printf
          "frontier: peak %d B queued (%d ids), peak resident %d B (budget %d B), \
           spilled %d B in %d chunks; peak joint states %d@."
          s.Core.Attack.Stats.peak_frontier_bytes s.Core.Attack.Stats.peak_frontier_len
          s.Core.Attack.Stats.peak_resident_bytes budget
          s.Core.Attack.Stats.spilled_bytes s.Core.Attack.Stats.spill_chunks
          s.Core.Attack.Stats.peak_joint_states
    | _ -> ()
  in
  let describe = function
    | Core.Attack.Witness w ->
        Format.asprintf "WITNESS (%s, depth %d, %d joint states)"
          (match w.Core.Attack.kind with
          | Core.Attack.Safety { violated_run } -> Printf.sprintf "safety, run %d" violated_run
          | Core.Attack.Starvation { starved_run } ->
              Printf.sprintf "starvation, run %d" starved_run)
          w.Core.Attack.depth w.Core.Attack.states_explored
    | Core.Attack.No_violation { closed; states_explored } ->
        Format.asprintf "no violation (%s, %d joint states)"
          (if closed then "closed" else "truncated")
          states_explored
  in
  let report =
    if xs <> [] then begin
      (* Sweep mode: every eligible pair from the repeated --x inputs,
         fanned out over --jobs domains. *)
      let outcomes, witness =
        Core.Attack.search p ~xs ~depth ~jobs ~symm ?mem_budget_bytes:mem_budget ?stats ()
      in
      List.iter
        (fun (a, b, o) ->
          Format.printf "%a vs %a: %s@." Seqspace.Xset.pp_sequence a Seqspace.Xset.pp_sequence b
            (describe o))
        outcomes;
      (match witness with
      | Some w -> Format.printf "%a@." Core.Attack.pp_witness w
      | None -> Format.printf "no witness over %d pairs@." (List.length outcomes));
      Core.Attack.search_report ?stats outcomes witness
    end
    else begin
      let outcome =
        if single then
          Core.Attack.search_single p ~x:x1 ~depth ?mem_budget_bytes:mem_budget ?stats ()
        else Core.Attack.search_pair p ~x1 ~x2 ~depth ?mem_budget_bytes:mem_budget ?stats ()
      in
      (match outcome with
      | Core.Attack.Witness w -> Format.printf "%a@." Core.Attack.pp_witness w
      | Core.Attack.No_violation { closed; states_explored } ->
          Format.printf "no violation found (%s, %d joint states)@."
            (if closed then "state space closed — adversary provably cannot win within the move \
                             bounds" else "search truncated")
            states_explored);
      Core.Attack.outcome_report ~x1 ~x2:(if single then x1 else x2) ?stats outcome
    end
  in
  print_spill_summary ();
  let* () = write_json json (Report.to_json report) in
  `Ok ()

let attack_cmd =
  let x1 =
    Arg.(value & opt input_conv [ 0; 1 ] & info [ "x1" ] ~doc:"First input sequence.")
  in
  let x2 =
    Arg.(value & opt input_conv [ 1; 0 ] & info [ "x2" ] ~doc:"Second input sequence.")
  in
  let xs =
    Arg.(
      value & opt_all input_conv []
      & info [ "x" ]
          ~doc:
            "Input for an all-pairs sweep (repeatable; use $(b,-x \"\") for the empty sequence). \
             When given, overrides --x1/--x2 and searches every eligible pair, split across \
             --jobs.")
  in
  let depth = Arg.(value & opt int 64 & info [ "depth" ] ~doc:"Joint search depth.") in
  let single =
    Arg.(value & flag & info [ "single" ] ~doc:"Single-run safety search on x1 only.")
  in
  let symm =
    Arg.(
      value & flag
      & info [ "symm" ]
          ~doc:
            "Quotient an all-pairs sweep ($(b,-x)) by data-alphabet symmetry composed with \
             the run swap: canonicalise each pair by first-occurrence relabelling, search \
             one representative per orbit, and translate witnesses back.  Outcomes are \
             unchanged; only protocols declaring an equivariance are affected (others ignore \
             the flag).  A single search (--x1/--x2 or --single) is never quotiented.")
  in
  let mem_budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "mem-budget" ] ~docv:"BYTES"
          ~doc:
            "Bound the BFS frontier's resident memory: past $(docv), full frontier chunks \
             spill to an unlinked temp file and stream back in FIFO order.  Outcomes and \
             --json artifacts are byte-identical to an unbounded search's; a resource \
             summary (budget-invariant metrics in the artifact, spill counters on stdout) \
             is reported.  A large value measures without spilling; 0 never spills.")
  in
  Cmd.v
    (Cmd.info "attack"
       ~doc:"Search for an impossibility witness (the Theorem 1/2 construction, executable).")
    Term.(
      ret
        (const attack_run $ protocol_arg () $ config_term () $ x1 $ x2 $ xs $ depth $ single
       $ symm $ mem_budget $ jobs_arg $ json_arg))

(* ---------------- knowledge ---------------- *)

let knowledge_run m seeds input json =
  let xs = Seqspace.Norep.enumerate ~m in
  let input = if input = [] then Seqspace.Norep.longest ~m else input in
  if not (List.mem input xs) then
    `Error (false, "input must be a repetition-free sequence over 0..m-1")
  else begin
    let u =
      Knowledge.Universe.sample (Protocols.Norep.dup ~m) ~xs
        ~strategies:[ Strategy.fair_random () ] ~seeds ~max_steps:2_000 ~post_roll:30
    in
    let traces = Array.length (Knowledge.Universe.traces u) in
    Format.printf "universe: %d traces, %d points, %d receiver-view classes@." traces
      (Knowledge.Universe.n_points u) (Knowledge.Universe.n_classes u);
    let table =
      Report.table ~title:"learning vs write times"
        [ ("run", Report.Right); ("t_i", Report.Left); ("writes", Report.Left) ]
    in
    List.iter
      (fun run ->
        let times a =
          String.concat "; "
            (Array.to_list (Array.map (function Some t -> string_of_int t | None -> "?") a))
        in
        let lt = times (Knowledge.Learn.learning_times u ~run) in
        let wt = times (Knowledge.Learn.write_times u ~run) in
        Format.printf "run %d (input %a): t_i = [%s], writes = [%s]@." run
          Seqspace.Xset.pp_sequence input lt wt;
        Report.row table
          [ Report.int run; Report.str ("[" ^ lt ^ "]"); Report.str ("[" ^ wt ^ "]") ])
      (Knowledge.Universe.runs_of u input);
    let* () =
      write_json json
        (Report.to_json
           (Report.make ~id:"knowledge"
              ~title:(Printf.sprintf "learning times t_i over the m=%d norep universe" m)
              [
                Report.Metrics
                  {
                    title = None;
                    pairs =
                      [
                        ("traces", Report.int traces);
                        ("points", Report.int (Knowledge.Universe.n_points u));
                        ("classes", Report.int (Knowledge.Universe.n_classes u));
                      ];
                  };
                Report.finish table;
              ]))
    in
    `Ok ()
  end

let knowledge_cmd =
  let m = Arg.(value & opt int 3 & info [ "m" ] ~doc:"Alphabet/domain size.") in
  let seeds = Arg.(value & opt int 6 & info [ "seeds" ] ~doc:"Schedules per input.") in
  let input =
    Arg.(value & opt input_conv [] & info [ "i"; "input" ] ~doc:"Run to report (default 0..m-1).")
  in
  Cmd.v
    (Cmd.info "knowledge" ~doc:"Compute the learning times t_i of Sec 2.3 on sampled universes.")
    Term.(ret (const knowledge_run $ m $ seeds $ input $ json_arg))

(* ---------------- verify ---------------- *)

let verify_run protocol config seeds max_steps max_failures jobs json =
  let* p = Registry.build_protocol ~name:protocol config in
  let candidates =
    if protocol = "norep" then Seqspace.Norep.enumerate ~m:config.Registry.domain
    else
      Seqspace.Xset.to_list
        (Seqspace.Xset.All_upto
           { domain = config.Registry.domain; max_len = config.Registry.max_len })
  in
  (* The protocol's own allowable set: the candidates it accepts. *)
  let xs =
    List.filter
      (fun x -> Result.is_ok (Registry.check_input config p (Array.of_list x)))
      candidates
  in
  let* () = if xs = [] then check_inputs config p candidates else Ok () in
  let spec = Core.Harness.default_spec ~max_steps ~n_seeds:seeds () in
  let report = Core.Harness.verify p ~xs ?max_failures ~jobs spec in
  Format.printf "%a@." Core.Harness.pp_report report;
  List.iteri
    (fun i f ->
      if i < 10 then
        Format.printf "  failure: input %a, %s, seed %d: %a@." Seqspace.Xset.pp_sequence
          f.Core.Harness.input f.Core.Harness.strategy_name f.Core.Harness.seed
          Core.Verdict.pp f.Core.Harness.verdict)
    report.Core.Harness.failures;
  let* () = write_json json (Report.to_json (Core.Harness.to_report report)) in
  if Core.Harness.clean report then `Ok ()
  else `Error (false, "verification found failing runs")

let verify_cmd =
  let seeds = Arg.(value & opt int 3 & info [ "seeds" ] ~doc:"Seeds per schedule.") in
  let max_failures =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-failures" ]
          ~doc:
            "Keep only the earliest $(docv) failure records; the failure count and the exit \
             status still reflect every failing run."
          ~docv:"N")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Batch-verify a protocol over its whole allowable set under a schedule battery.")
    Term.(
      ret
        (const verify_run $ protocol_arg () $ config_term () $ seeds $ max_steps_arg
       $ max_failures $ jobs_arg $ json_arg))

(* ---------------- recover ---------------- *)

let recover_run protocol config input json =
  let* p = Registry.build_protocol ~name:protocol config in
  let* () = Registry.check_input config p (Array.of_list input) in
  let r = Core.Spec.recoverability p ~input () in
  Format.printf "%a@." Core.Spec.pp_recoverability r;
  Format.printf "recoverable: %b (Property 2's executable face — see DESIGN.md E12)@."
    (Core.Spec.recoverable r);
  let* () = write_json json (Report.to_json (Core.Spec.recoverability_report ~protocol r)) in
  `Ok ()

let recover_cmd =
  let input =
    Arg.(value & opt input_conv [ 0; 1 ] & info [ "i"; "input" ] ~doc:"Input sequence.")
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Exhaustive dead-state analysis: can every reachable state still complete?")
    Term.(ret (const recover_run $ protocol_arg () $ config_term () $ input $ json_arg))

(* ---------------- census ---------------- *)

let census_run samples states jobs json =
  let control = Core.Census.control_is_clean () in
  let r = Core.Census.run ~samples ~states ~jobs () in
  Format.printf
    "census over %d random non-uniform protocols (m=1, |X|=3 > alpha(1)=2):@.\
     \ \ broken directly: %d@.\ \ witnessed by attack: %d@.\ \ undecided: %d@.\
     \ \ survivors: %d@.control protocol at the bound: %s@."
    r.Core.Census.samples r.Core.Census.broken_directly r.Core.Census.witnessed
    r.Core.Census.undecided r.Core.Census.survivors
    (if control then "clean" else "BROKEN");
  let* () = write_json json (Report.to_json (Core.Census.to_report ~control r)) in
  if Core.Census.ok r && control then `Ok ()
  else `Error (false, "census found a survivor or was inconclusive")

let census_cmd =
  let samples = Arg.(value & opt int 300 & info [ "samples" ] ~doc:"Protocols to sample.") in
  let states = Arg.(value & opt int 3 & info [ "states" ] ~doc:"Control states per process.") in
  Cmd.v
    (Cmd.info "census" ~doc:"Sample random protocols at m=1 and classify them (E9).")
    Term.(ret (const census_run $ samples $ states $ jobs_arg $ json_arg))

(* ---------------- experiments ---------------- *)

let experiments_run quick only format json =
  let entries = Registry.experiments () in
  let entries =
    match only with
    | [] -> entries
    | ids ->
        let ids = List.map String.lowercase_ascii ids in
        List.filter
          (fun e -> List.mem (String.lowercase_ascii e.Registry.e_id) ids)
          entries
  in
  let results =
    List.map (fun e -> if quick then e.Registry.e_quick () else e.Registry.e_full ()) entries
  in
  let set = Report.set_to_json results in
  let* () = write_json json set in
  print_reports ~text:(fun r -> Format.printf "%a@.@." Core.Experiments.pp_result r) format set
    results;
  if List.for_all Core.Experiments.ok results then `Ok ()
  else `Error (false, "some experiment shapes were violated")

let experiments_cmd =
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Small parameters (test scale).") in
  let only =
    Arg.(value & opt_all string [] & info [ "only" ] ~doc:"Run only this experiment id (repeatable).")
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Run the E1-E17 reproduction experiments.")
    Term.(ret (const experiments_run $ quick $ only $ format_arg $ json_arg))

(* ---------------- soak ---------------- *)

let soak_run seed jobs random_plans stab max_seconds format json =
  let cases =
    if stab then Faults.Soak.stab_battery ~random_plans ~seed ()
    else Faults.Soak.default_battery ~random_plans ~seed ()
  in
  let r = Faults.Soak.run ~jobs ?max_seconds ~seed cases in
  let* () = write_json json (Report.to_json r) in
  print_reports format (Report.to_json r) [ r ];
  if r.Report.ok = Some true then `Ok ()
  else `Error (false, "soak battery was truncated before completing")

let soak_cmd =
  let random_plans =
    Arg.(
      value & opt int 4
      & info [ "random-plans" ] ~doc:"Seeded random fault plans per protocol.")
  in
  let stab =
    Arg.(
      value & flag
      & info [ "stab" ]
          ~doc:
            "Run the corrupted-start battery instead: every single-sided corrupted start of \
             each stabilising family (abp-stab, stenning-stab, gbn-stab) as a \
             $(b,corrupt-state) plan, composed plans pairing corrupted starts with mid-run \
             faults (including mid-run receiver corruption), stock ABP for contrast, plus \
             seeded random plans drawing from the full corruption space alongside the \
             ordinary fault kinds.")
  in
  let max_seconds =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-seconds" ]
          ~doc:
            "Wall-clock budget; when exhausted the remaining cases are skipped and the report \
             carries a truncation note (and exits non-zero).")
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Run the fault-injection soak battery: scripted and random fault plans over the \
          registered protocols, with per-run recovery verdicts.  Bit-identical at every \
          --jobs count.")
    Term.(
      ret
        (const soak_run $ seed_arg $ jobs_arg $ random_plans $ stab $ max_seconds $ format_arg
       $ json_arg))

(* ---------------- stab ---------------- *)

let stab_run protocol config input within max_steps seed jobs search depth max_states
    max_sends format json =
  let* p = Registry.build_protocol ~name:protocol config in
  let input = Array.of_list input in
  let* () = Registry.check_input config p input in
  match Core.Stab.sweep ~jobs ~max_steps p ~input ~within ~seed () with
  | exception Invalid_argument e -> `Error (false, e)
  | sweep ->
      let r = Core.Stab.sweep_report sweep in
      let r =
        if not search then r
        else
          let o =
            Core.Stab.search ~depth ~max_states ~max_sends_per_sender:max_sends
              ~max_sends_per_receiver:max_sends p ~input ()
          in
          let violation_free =
            match o with Core.Stab.No_violation _ -> true | Core.Stab.Violation _ -> false
          in
          {
            r with
            Report.items = r.Report.items @ Core.Stab.outcome_items o;
            ok = Some (sweep.Core.Stab.all_stabilised && violation_free);
          }
      in
      let* () = write_json json (Report.to_json r) in
      print_reports format (Report.to_json r) [ r ];
      if r.Report.ok = Some true then `Ok ()
      else `Error (false, "a corrupted start failed to stabilise (or reached a violation)")

let stab_cmd =
  let protocol =
    protocol_arg ~default:"abp-stab" ~doc:"Protocol to sweep (must declare a perturb space)." ()
  in
  let input =
    Arg.(value & opt input_conv [ 0; 1; 1; 0 ] & info [ "i"; "input" ] ~doc:"Input sequence.")
  in
  let within =
    Arg.(
      value & opt int 256
      & info [ "within" ] ~doc:"Stabilisation window in steps from the corrupted start.")
  in
  let search =
    Arg.(
      value & flag
      & info [ "search" ]
          ~doc:
            "Also run the exact corrupted-root witness search: a capped BFS rooted at every \
             corrupted start simultaneously, hunting for a reachable safety violation.")
  in
  let depth = Arg.(value & opt int 64 & info [ "depth" ] ~doc:"Search depth cap.") in
  let max_states =
    Arg.(value & opt int 200_000 & info [ "max-states" ] ~doc:"Search state cap.")
  in
  let max_sends =
    Arg.(value & opt int 4 & info [ "max-sends" ] ~doc:"Search cap on sends per side.")
  in
  let max_steps =
    Arg.(value & opt int 20_000 & info [ "max-steps" ] ~doc:"Step budget per sweep point.")
  in
  Cmd.v
    (Cmd.info "stab"
       ~doc:
         "Sweep a protocol's declared corrupted-start space: one deterministic session per \
          corrupted pair, per-point stabilisation verdicts, worst-case time-to-stabilise, \
          and (with --search) an exact witness search over the union of corrupted roots.")
    Term.(
      ret
        (* The stabilisation sweep's canonical subject is abp-stab on its
           native channel at E15's parameters. *)
        (const stab_run $ protocol
        $ config_term ~channel:Chan.Fifo_lossy ~domain:2 ()
        $ input $ within $ max_steps $ seed_arg $ jobs_arg $ search $ depth $ max_states
        $ max_sends $ format_arg $ json_arg))

(* ---------------- serve ---------------- *)

let serve_run once spool jobs results_only poll_seconds max_batches idle_exit format json =
  match (once, spool) with
  | None, None | Some _, Some _ ->
      `Error (true, "serve needs exactly one of --once FILE or --spool DIR")
  | Some path, None ->
      (* Drain one batch file and exit: the cram-testable path. *)
      let* batch = Result.map_error (Printf.sprintf "%s: %s" path) (Serve.load_batch path) in
      let t0 = Stdx.Clock.now () in
      let outcomes, stats = Serve.run_batch ~jobs batch in
      let telemetry =
        Serve.observe Serve.telemetry_zero stats ~wall_seconds:(Stdx.Clock.now () -. t0)
      in
      let results = Serve.results_report ~label:(Filename.basename path) outcomes in
      let telemetry_r = Serve.telemetry_report telemetry in
      let art = Serve.artifact ~results_only ~results ~telemetry:telemetry_r () in
      print_reports format art (if results_only then [ results ] else [ results; telemetry_r ]);
      let* () = write_json json art in
      `Ok ()
  | None, Some dir ->
      let* telemetry =
        Serve.spool ~jobs ~poll_seconds ?max_batches ?idle_exit ~dir ()
      in
      print_string (Report.to_text (Serve.telemetry_report telemetry));
      `Ok ()

let serve_cmd =
  let once =
    Arg.(
      value
      & opt (some string) None
      & info [ "once" ] ~docv:"FILE"
          ~doc:"Execute one JSON batch file, emit its artifact, and exit.")
  in
  let spool =
    Arg.(
      value
      & opt (some string) None
      & info [ "spool" ] ~docv:"DIR"
          ~doc:
            "Run as a daemon: poll $(docv) for $(b,*.json) batch files, execute each, write \
             $(b,<name>.report.json) beside it (with cumulative telemetry), and rename the \
             input to $(b,<name>.json.done).")
  in
  let results_only =
    Arg.(
      value & flag
      & info [ "results-only" ]
          ~doc:
            "Omit the telemetry report from the artifact, leaving only the deterministic \
             per-job results — artifacts then compare byte-identical across --jobs counts.")
  in
  let poll_seconds =
    Arg.(value & opt float 0.5 & info [ "poll-seconds" ] ~doc:"Spool-directory poll interval.")
  in
  let max_batches =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-batches" ] ~doc:"Exit the daemon after $(docv) batches." ~docv:"N")
  in
  let idle_exit =
    Arg.(
      value
      & opt (some float) None
      & info [ "idle-exit" ]
          ~doc:"Exit the daemon after $(docv) seconds with no batch file to process."
          ~docv:"SECONDS")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve batches of sessions behind a daemon: read JSON job specs (protocol x \
          channel x plan x budget), run each job's session to its end over --jobs domains, \
          and stream report-IR artifacts with cumulative telemetry.")
    Term.(
      ret
        (const serve_run $ once $ spool $ jobs_arg $ results_only $ poll_seconds
       $ max_batches $ idle_exit $ format_arg $ json_arg))

(* ---------------- validate ---------------- *)

let validate_run path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> `Error (false, e)
  | contents -> (
      match Report.validate_artifact contents with
      | Ok n -> (
          (* Schema-valid; now surface the verdict envelope: an
             artifact recording a failure must fail the pipeline. *)
          let failed =
            match Result.bind (Stdx.Json.parse contents) Report.set_of_json with
            | Ok reports ->
                List.filter_map
                  (fun r -> if r.Report.ok = Some false then Some r.Report.id else None)
                  reports
            | Error _ -> []
          in
          match failed with
          | [] ->
              Format.printf "%s: valid report artifact, %d report(s), schema version %d@." path
                n Report.schema_version;
              `Ok ()
          | ids ->
              `Error
                ( false,
                  Printf.sprintf "%s: schema-valid, but report(s) carry ok=false: %s" path
                    (String.concat ", " ids) ))
      | Error e -> `Error (false, Printf.sprintf "%s: invalid artifact: %s" path e))

let validate_cmd =
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH" ~doc:"Artifact to check.")
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Parse a --json artifact, check its schema, and round-trip it through the report IR.")
    Term.(ret (const validate_run $ path))

let () =
  let doc = "Tight bounds for the sequence transmission problem (Wang & Zuck, PODC 1989)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "stp" ~doc)
          [
            alpha_cmd;
            simulate_cmd;
            attack_cmd;
            knowledge_cmd;
            verify_cmd;
            recover_cmd;
            census_cmd;
            experiments_cmd;
            soak_cmd;
            stab_cmd;
            serve_cmd;
            validate_cmd;
          ]))
