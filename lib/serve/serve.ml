module Json = Stdx.Json
module Report = Stdx.Report
module Registry = Kernel.Registry
module Sched = Kernel.Sched
module Chan = Channel.Chan

type job = {
  label : string;
  protocol : Kernel.Protocol.t;
  protocol_name : string;
  channel : Chan.kind;
  input : int array;
  strategy : Kernel.Strategy.t;
  strategy_name : string;
  seed : int;
  max_steps : int;
  post_roll : int;
  max_seconds : float option;
  plan : Faults.Plan.t option;
  within : int;
}

type outcome = {
  job : job;
  result : Kernel.Runner.result;
  verdict : Core.Verdict.t;
  ttr : int option;
}

(* ------------------------- job parsing ------------------------- *)

let ( let* ) = Result.bind

let str_field j key ~default =
  match Json.member key j with
  | None -> Ok default
  | Some (Json.String s) -> Ok s
  | Some _ -> Error (Printf.sprintf "%S must be a string" key)

let int_field j key ~default =
  match Json.member key j with
  | None -> Ok default
  | Some (Json.Int i) -> Ok i
  | Some _ -> Error (Printf.sprintf "%S must be an integer" key)

let float_opt_field j key =
  match Json.member key j with
  | None -> Ok None
  | Some (Json.Float f) -> Ok (Some f)
  | Some (Json.Int i) -> Ok (Some (float_of_int i))
  | Some _ -> Error (Printf.sprintf "%S must be a number" key)

let input_field j =
  match Json.member "input" j with
  | None -> Error "missing required field \"input\""
  | Some (Json.List cells) ->
      let* xs =
        List.fold_left
          (fun acc c ->
            let* acc = acc in
            match c with
            | Json.Int i -> Ok (i :: acc)
            | _ -> Error "\"input\" must be a list of integers")
          (Ok []) cells
      in
      Ok (Array.of_list (List.rev xs))
  | Some _ -> Error "\"input\" must be a list of integers"

let job_of_json ~index j =
  let d = Registry.default in
  let located e = Error (Printf.sprintf "job %d: %s" index e) in
  match
    let* label = str_field j "label" ~default:(Printf.sprintf "job%d" index) in
    let* protocol_name =
      match Json.member "protocol" j with
      | Some (Json.String s) -> Ok s
      | Some _ -> Error "\"protocol\" must be a string"
      | None -> Error "missing required field \"protocol\""
    in
    let* input = input_field j in
    let* channel_name = str_field j "channel" ~default:(Chan.to_string d.Registry.channel) in
    let* channel =
      match Chan.of_string channel_name with
      | Some k -> Ok k
      | None -> Error (Printf.sprintf "unknown channel %S" channel_name)
    in
    let* domain = int_field j "domain" ~default:d.Registry.domain in
    let* max_len = int_field j "max_len" ~default:d.Registry.max_len in
    let* header_space = int_field j "header_space" ~default:d.Registry.header_space in
    let* drop_budget = int_field j "drop_budget" ~default:d.Registry.drop_budget in
    let* window = int_field j "window" ~default:d.Registry.window in
    let config = { Registry.channel; domain; max_len; header_space; drop_budget; window } in
    let* protocol = Registry.build_protocol ~name:protocol_name config in
    let* () = Registry.check_input config protocol input in
    let* strategy_name = str_field j "strategy" ~default:"fair-random" in
    let* base = Kernel.Strategy.of_string strategy_name in
    let* seed = int_field j "seed" ~default:1 in
    let* max_steps = int_field j "max_steps" ~default:50_000 in
    let* post_roll = int_field j "post_roll" ~default:0 in
    let* max_seconds = float_opt_field j "max_seconds" in
    let* () =
      if Option.value max_seconds ~default:0.0 >= 0.0 then Ok ()
      else Error "\"max_seconds\" must be at least 0"
    in
    let* within = int_field j "within" ~default:64 in
    let* plan =
      match Json.member "plan" j with
      | None -> Ok None
      | Some pj ->
          let* plan = Faults.Plan.of_json pj in
          (* The protocol's declared corrupted-start space (if any)
             legalises corrupt-state events exactly as the channel's
             capability flags legalise drops. *)
          let* () =
            Faults.Plan.validate ~channel:protocol.Kernel.Protocol.channel
              ?corrupt_space:(Kernel.Protocol.corrupt_space protocol ~input)
              plan
          in
          Ok (Some plan)
    in
    let strategy =
      match plan with
      | None -> base
      | Some plan -> Faults.Inject.strategy ~plan ~base
    in
    Ok
      {
        label;
        protocol;
        protocol_name;
        channel = protocol.Kernel.Protocol.channel;
        input;
        strategy;
        strategy_name;
        seed;
        max_steps;
        post_roll;
        max_seconds;
        plan;
        within;
      }
  with
  | Ok job -> Ok job
  | Error e -> located e

let batch_of_json j =
  let jobs_json =
    match j with
    | Json.List l -> Ok l
    | Json.Obj _ -> (
        match Json.member "jobs" j with
        | Some (Json.List l) -> Ok l
        | Some _ -> Error "\"jobs\" must be a list"
        | None -> Error "batch object has no \"jobs\" field")
    | _ -> Error "a batch is a JSON object with a \"jobs\" list, or a bare list of jobs"
  in
  let* jobs_json = jobs_json in
  let* rev =
    List.fold_left
      (fun acc (i, j) ->
        let* acc = acc in
        let* job = job_of_json ~index:i j in
        Ok (job :: acc))
      (Ok [])
      (List.mapi (fun i j -> (i, j)) jobs_json)
  in
  Ok (List.rev rev)

let load_batch path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents ->
      let* j = Json.parse contents in
      batch_of_json j

(* ------------------------- execution ------------------------- *)

let run_batch ?jobs ?timeslice batch =
  let sessions =
    List.map
      (fun j ->
        Sched.session j.protocol ~input:j.input ~strategy:j.strategy
          ~rng:(Stdx.Rng.create j.seed) ~max_steps:j.max_steps ?max_seconds:j.max_seconds
          ~post_roll:j.post_roll ())
      batch
  in
  let results, stats = Core.Batch.run_stats ?jobs ?timeslice sessions in
  let outcomes =
    List.map2
      (fun job result ->
        let verdict, ttr =
          match job.plan with
          | None -> (Core.Verdict.of_result result, None)
          | Some plan -> Faults.Inject.verdict ~plan ~within:job.within result
        in
        { job; result; verdict; ttr })
      batch results
  in
  (outcomes, stats)

(* ------------------------- reports ------------------------- *)

let results_report ~label outcomes =
  let n = List.length outcomes in
  let count f = List.length (List.filter f outcomes) in
  let completed = count (fun o -> o.result.Kernel.Runner.stop = Kernel.Runner.Completed) in
  let safe = count (fun o -> o.verdict.Core.Verdict.safe) in
  let complete = count (fun o -> o.verdict.Core.Verdict.complete) in
  let with_plan = count (fun o -> o.job.plan <> None) in
  let recovered = count (fun o -> o.verdict.Core.Verdict.recovered = Some true) in
  let metrics =
    Report.Metrics
      {
        title = Some "batch";
        pairs =
          [
            ("jobs", Report.int n);
            ("stop_completed", Report.int completed);
            ("safe", Report.int safe);
            ("complete", Report.int complete);
            ("with_plan", Report.int with_plan);
            ("recovered", Report.int recovered);
          ];
      }
  in
  let b =
    Report.table ~title:"per-job results"
      [
        ("job", Report.Left);
        ("protocol", Report.Left);
        ("channel", Report.Left);
        ("strategy", Report.Left);
        ("seed", Report.Right);
        ("stop", Report.Left);
        ("steps", Report.Right);
        ("safe", Report.Right);
        ("complete", Report.Right);
        ("recovered", Report.Left);
        ("ttr", Report.Right);
      ]
  in
  List.iter
    (fun o ->
      let v = o.verdict in
      Report.row b
        [
          Report.str o.job.label;
          Report.str o.job.protocol_name;
          Report.str (Chan.kind_name o.job.channel);
          Report.str o.job.strategy_name;
          Report.int o.job.seed;
          Report.str (Format.asprintf "%a" Sched.pp_stop o.result.Kernel.Runner.stop);
          Report.int v.Core.Verdict.steps;
          Report.bool v.Core.Verdict.safe;
          Report.bool v.Core.Verdict.complete;
          (match v.Core.Verdict.recovered with
          | None -> Report.str "-"
          | Some r -> Report.bool r);
          Report.opt_int o.ttr;
        ])
    outcomes;
  (* ok means "the batch drained": a job whose protocol loses is a
     result the artifact reports, not a service failure — otherwise an
     adversarial battery could never validate. *)
  Report.make ~id:"serve"
    ~title:(Printf.sprintf "serve batch %s (%d jobs)" label n)
    ~ok:true
    [ metrics; Report.finish b ]

type telemetry = { batches : int; stats : Sched.stats; wall_seconds : float }

let telemetry_zero = { batches = 0; stats = Sched.stats_zero; wall_seconds = 0.0 }

let observe t stats ~wall_seconds =
  {
    batches = t.batches + 1;
    stats = Sched.stats_merge t.stats stats;
    wall_seconds = t.wall_seconds +. wall_seconds;
  }

let telemetry_report t =
  let s = t.stats in
  let steps_per_sec =
    if t.wall_seconds > 0.0 then float_of_int s.Sched.steps /. t.wall_seconds else 0.0
  in
  Report.make ~id:"serve-telemetry" ~title:"scheduler telemetry (cumulative)"
    [
      Report.Section
        {
          heading = "telemetry";
          items =
            [
              Report.Metrics
                {
                  title = Some "scheduler";
                  pairs =
                    [
                      ("batches", Report.int t.batches);
                      ("sessions", Report.int s.Sched.sessions);
                      ("steps", Report.int s.Sched.steps);
                      ("ticks", Report.int s.Sched.ticks);
                      ("peak_queue_depth", Report.int s.Sched.peak_live);
                      ("stop_completed", Report.int s.Sched.completed);
                      ("stop_quiescent", Report.int s.Sched.quiescent);
                      ("stop_budget", Report.int s.Sched.budget);
                      ("stop_strategy_end", Report.int s.Sched.strategy_end);
                      ("wall_seconds", Report.float ~decimals:3 t.wall_seconds);
                      ("steps_per_sec", Report.float ~decimals:0 steps_per_sec);
                    ];
                };
            ];
        };
    ]

let artifact ?(results_only = false) ~results ~telemetry () =
  Report.set_to_json (if results_only then [ results ] else [ results; telemetry ])

(* ------------------------- the daemon ------------------------- *)

(* Crash-safe artifact write: a reader polling the spool directory
   must never observe a half-written report, and a daemon killed
   mid-write must not leave a plausible-looking truncated artifact
   behind — so write to a dotted temp name (invisible to the
   *.json pickup glob) and atomically rename into place. *)
let write_file path contents =
  let tmp = Filename.concat (Filename.dirname path) ("." ^ Filename.basename path ^ ".tmp") in
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc contents;
      Out_channel.output_char oc '\n');
  Sys.rename tmp path

let spool ?jobs ?timeslice ?(poll_seconds = 0.5) ?max_batches ?idle_exit ~dir () =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (Printf.sprintf "%s: not a directory" dir)
  else begin
    let telemetry = ref telemetry_zero in
    let batches = ref 0 in
    let idle_since = ref (Stdx.Clock.now ()) in
    let stop = ref false in
    while not !stop do
      let next_batch =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f ->
               Filename.check_suffix f ".json" && not (Filename.check_suffix f ".report.json"))
        |> List.sort String.compare
        |> function
        | [] -> None
        | f :: _ -> Some f
      in
      match next_batch with
      | None -> (
          match idle_exit with
          | Some s when Stdx.Clock.now () -. !idle_since >= s -> stop := true
          | _ -> Unix.sleepf poll_seconds)
      | Some f -> (
          let path = Filename.concat dir f in
          idle_since := Stdx.Clock.now ();
          match load_batch path with
          | Error e ->
              Format.printf "batch %s: REJECTED (%s)@." f e;
              Sys.rename path (path ^ ".failed");
              incr batches;
              (match max_batches with Some m when !batches >= m -> stop := true | _ -> ())
          | Ok batch ->
              let t0 = Stdx.Clock.now () in
              let outcomes, stats = run_batch ?jobs ?timeslice batch in
              telemetry := observe !telemetry stats ~wall_seconds:(Stdx.Clock.now () -. t0);
              let results = results_report ~label:f outcomes in
              let out = Filename.chop_suffix path ".json" ^ ".report.json" in
              write_file out
                (Json.to_string
                   (artifact ~results ~telemetry:(telemetry_report !telemetry) ()));
              Sys.rename path (path ^ ".done");
              let completed =
                List.length
                  (List.filter
                     (fun o -> o.result.Kernel.Runner.stop = Kernel.Runner.Completed)
                     outcomes)
              in
              Format.printf "batch %s: %d jobs, %d completed, %d steps -> %s@." f
                (List.length outcomes) completed stats.Sched.steps (Filename.basename out);
              incr batches;
              (match max_batches with Some m when !batches >= m -> stop := true | _ -> ()))
    done;
    Ok !telemetry
  end
