(* The end-to-end benchmark (see README.md beside this file):

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload in-process on one domain for S seconds and prints,
   as its last line, one JSON object with the keys correct, attempted,
   failed and metrics.  --trace 0 gives the end-to-end metrics;
   --trace 1 is the separate traced run and gives the per-layer ones. *)

open Harness

let workloads : (string * (module WORKLOAD)) list =
  [
    (Pair_sweep.name, (module Pair_sweep));
    (Single_bfs.name, (module Single_bfs));
    (Serve_loop.name, (module Serve_loop));
  ]

let end_to_end = [ ("setup_s", "s"); ("op_best_ms", "ms"); ("peak_rss_mb", "MB") ]

(* Every traced run prints every per-layer metric; a layer the workload
   does not exercise reads 0. *)
let per_layer =
  [
    (* pair-sweep *)
    ("symm.canon_ms", "ms");
    ("symm.reps", "count");
    ("attack.search_pair_self_s", "s");
    ("attack.search_pair_p50_ms", "ms");
    ("attack.search_pair_p90_ms", "ms");
    ("attack.joint_states", "count");
    ("attack.us_per_joint_state", "us");
    ("attack.orchestration_ms", "ms");
    ("runstate.states", "count");
    ("runstate.hits", "count");
    ("runstate.hits_per_state", "ratio");
    ("attack.peak_joint_states", "count");
    ("frontier.peak_bytes", "B");
    ("report.bytes", "B");
    ("gc.minor_words_per_sweep", "words");
    ("gc.major_collections_per_sweep", "count");
    (* single-bfs *)
    ("stab.search_ms", "ms");
    ("stab.states", "count");
    ("stab.us_per_state", "us");
    ("stab.peak_frontier_bytes", "B");
    ("gc.minor_words_per_state.stab", "words");
    ("attack.single_ms", "ms");
    ("attack.single_states", "count");
    ("attack.single_us_per_state", "us");
    ("attack.single_peak_frontier_bytes", "B");
    ("gc.minor_words_per_state.attack_single", "words");
    ("spec.recover_ms", "ms");
    ("spec.states", "count");
    ("spec.us_per_state", "us");
    ("gc.minor_words_per_state.spec", "words");
    (* serve-loop *)
    ("json.parse_ms", "ms");
    ("json.bytes_in", "B");
    ("serve.resolve_ms", "ms");
    ("sched.run_ms", "ms");
    ("sched.ns_per_step", "ns");
    ("sched.steps", "count");
    ("sched.ticks", "count");
    ("sched.peak_live", "count");
    ("sched.stop_completed", "count");
    ("sched.stop_quiescent", "count");
    ("sched.stop_budget", "count");
    ("sched.stop_strategy_end", "count");
    ("report.bytes_out", "B");
    ("gc.minor_words_per_job", "words");
    (* pair-sweep and serve-loop *)
    ("report.render_ms", "ms");
    ("par.speedup_j2", "ratio");
    (* all *)
    ("trace.overhead_pct", "%");
  ]

(* The declared list, in its order, filled from what the run measured. *)
let fill tally declared measured =
  List.iter
    (fun m ->
      match List.assoc_opt m.name declared with
      | Some u when u = m.unit_ -> ()
      | _ -> fail tally "metrics" (Printf.sprintf "undeclared metric %s (%s)" m.name m.unit_))
    measured;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.name = name) measured with
      | Some m -> m
      | None -> { name; unit_; value = Report.int 0 })
    declared

let metrics_table metrics =
  let b =
    Report.table_cols ~title:"metrics"
      [ Report.column "metric"; Report.column "value" ~align:Report.Right; Report.column "unit" ]
  in
  List.iter (fun m -> Report.row b [ Report.str m.name; m.value; Report.str m.unit_ ]) metrics;
  Report.finish b

let finish (type a) (module W : WORKLOAD with type t = a) ~seed ~seconds ~traced tally ~facts
    ~extra metrics =
  let correct = tally.failed = 0 in
  let run =
    Report.Metrics
      {
        title = Some "run";
        pairs =
          [
            ("workload", Report.str W.name);
            ("seed", Report.int seed);
            ("seconds", Report.float seconds);
            ("traced", Report.bool traced);
            ("attempted", Report.int tally.attempted);
            ("failed", Report.int tally.failed);
            ( "fail_rate",
              Report.str
                (Printf.sprintf "%g (%d of %d ops)"
                   (ratio (float_of_int tally.failed) (float_of_int tally.attempted))
                   tally.failed tally.attempted) );
          ]
          @ facts;
      }
  in
  let report =
    Report.make ~id:"e2ebench"
      ~title:(Printf.sprintf "%s, %s run" W.name (if traced then "traced" else "untraced"))
      ~ok:correct ~notes:(List.rev tally.errors)
      [ run; metrics_table metrics ]
  in
  let file =
    Printf.sprintf "%s-seed%d-%s.json" W.name seed (if traced then "traced" else "untraced")
  in
  let path = write_artifact ~file (report :: extra) in
  print_string (Report.to_text report);
  Printf.printf "artifact: %s\n" path;
  print_endline (result_line ~correct ~attempted:tally.attempted ~failed:tally.failed metrics)

let samples_seconds samples = List.map (fun s -> s.seconds) samples
let median_or_zero = function [] -> 0.0 | xs -> Stat.median xs

(* The fastest time of each distinct input, averaged over the inputs.
   Load from outside only ever adds time, and on a shared host it comes
   and goes for seconds at a time (README.md), so an input's fastest run
   is its cost. *)
let best_of (type a) (module W : WORKLOAD with type t = a) (t : a) samples =
  let best = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let cls = W.repeat_class t s.index in
      match Hashtbl.find_opt best cls with
      | Some b when b <= s.seconds -> ()
      | _ -> Hashtbl.replace best cls s.seconds)
    samples;
  ratio (Hashtbl.fold (fun _ b acc -> acc +. b) best 0.0) (float_of_int (Hashtbl.length best))

(* Run operations 1, 2, ... for [seconds], not counting time taken by
   [between], which runs before an operation whenever it asks to. *)
let loop ?(between = fun () -> false) ~seconds f =
  let start = now () and paused = ref 0.0 and i = ref 1 in
  while now () -. start -. !paused < seconds do
    let t0 = now () in
    if between () then paused := !paused +. (now () -. t0)
    else begin
      f !i;
      incr i
    end
  done

let untraced (type a) (module W : WORKLOAD with type t = a) ~seed ~seconds =
  let w = (module W : WORKLOAD with type t = a) in
  let tally = tally () in
  let setups = ref [] and samples = ref [] and best = ref 0.0 in
  (match attempt tally "set-up" (fun () -> setup w ~seed ~index:0) with
  | None -> ()
  | Some (t, s) ->
      (* The other set-ups are spread over the run, so they meet the host
         in the same states the ops do. *)
      setups := [ s ];
      let tries = ref 1 and spent = ref 0.0 and next = ref (now ()) in
      let probe () =
        let t0 = now () in
        incr tries;
        Option.iter
          (fun s -> setups := s :: !setups)
          (attempt tally "set-up probe" (fun () ->
               setup_probe ~workload:W.name ~seed ~index:!tries));
        spent := !spent +. (now () -. t0);
        next := now () +. (seconds /. 25.0)
      in
      let between () =
        now () >= !next && want_setup ~n:!tries ~spent:!spent ~seconds && (probe (); true)
      in
      loop ~between ~seconds (fun i ->
          Option.iter (fun s -> samples := s :: !samples) (run_op w t tally None i));
      (* a run too short to space out five set-ups still takes five *)
      while !tries < 5 do
        probe ()
      done;
      samples := List.rev !samples;
      check_repeats w t tally "repeat" !samples;
      best := best_of w t !samples);
  let samples = !samples in
  let times = samples_seconds samples in
  let tail = match times with [] -> { Stat.pct = 0.0; value = 0.0; n = 0 } | _ -> Stat.tail times in
  let metrics =
    fill tally end_to_end
      [
        num "setup_s" "s" (median_or_zero !setups);
        ms "op_best_ms" !best;
        num "peak_rss_mb" "MB" (peak_rss_mb ());
      ]
  in
  finish w ~seed ~seconds ~traced:false tally ~extra:[]
    ~facts:
      [
        ("ops timed", Report.int (List.length times));
        ("op median ms", Report.float ~decimals:3 (1e3 *. median_or_zero times));
        ( "op tail ms",
          Report.str (Printf.sprintf "%.3f (p%.1f of %d ops)" (1e3 *. tail.value) tail.pct tail.n) );
        ("set-up samples", Report.int (List.length !setups));
      ]
    metrics

let traced (type a) (module W : WORKLOAD with type t = a) ~seed ~seconds =
  let w = (module W : WORKLOAD with type t = a) in
  let tally = tally () in
  let tr = Spans.create () in
  let plain = ref [] and traced = ref [] and layers = ref [] in
  (match attempt tally "set-up" (fun () -> setup w ~seed ~index:0) with
  | None -> ()
  | Some (t, _) ->
      (* Untraced and traced ops alternate on the same inputs, so the
         tracing overhead is measured in one time window. *)
      loop ~seconds (fun i ->
          Option.iter (fun s -> plain := s :: !plain) (run_op w t tally None i);
          Option.iter (fun s -> traced := s :: !traced) (run_op w t tally (Some tr) i));
      let plain = List.rev !plain and traced = List.rev !traced in
      check_repeats w t tally "repeat (untraced)" plain;
      check_repeats w t tally "repeat (traced)" traced;
      Option.iter
        (fun ms -> layers := ms)
        (attempt tally "layers" (fun () -> W.layers t tr ~plain ~traced tally)));
  let overhead =
    100.0
    *. (ratio (median_or_zero (samples_seconds !traced)) (median_or_zero (samples_seconds !plain))
       -. 1.0)
  in
  let metrics = fill tally per_layer (num "trace.overhead_pct" "%" overhead :: !layers) in
  let spans = Report.make ~id:"e2ebench-spans" ~title:(W.name ^ " spans") [ Spans.to_item tr ] in
  finish w ~seed ~seconds ~traced:true tally ~extra:[ spans ]
    ~facts:
      [
        ("ops untraced", Report.int (List.length !plain));
        ("ops traced", Report.int (List.length !traced));
      ]
    metrics

let probe (type a) (module W : WORKLOAD with type t = a) ~seed ~index =
  let _, seconds = setup (module W) ~seed ~index in
  Printf.printf "%.9f\n" seconds

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let probe_index = ref (-1) in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME  " ^ String.concat ", " (List.map fst workloads) );
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  how long to measure");
      ("--trace", Arg.Set_int trace, "0|1  1 for the traced per-layer run");
      ("--setup-probe", Arg.Set_int probe_index, "K  time one cold set-up, warming up on op K (internal)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match List.assoc_opt !workload workloads with
  | None ->
      prerr_endline ("unknown workload " ^ !workload ^ "; " ^ usage);
      exit 2
  | Some _ when !trace <> 0 && !trace <> 1 ->
      prerr_endline usage;
      exit 2
  | Some (module W) ->
      if !probe_index >= 0 then probe (module W) ~seed:!seed ~index:!probe_index
      else if !trace = 1 then traced (module W) ~seed:!seed ~seconds:!seconds
      else untraced (module W) ~seed:!seed ~seconds:!seconds
