(** The [stp serve] batch service: JSON job specs in, report-IR
    artifacts out, over {!Kernel.Sched} sessions.

    A {e job} is one session described as data: protocol ×
    channel × input × strategy × seed × budgets, plus an optional
    fault plan (validated against the channel's capabilities and
    compiled through {!Faults.Inject}).  A {e batch} is a JSON file of
    jobs; executing it builds one session per job, maps
    {!Kernel.Sched.run} over them on the domain pool ({!Core.Par.map}),
    and renders two reports:

    - [serve] — per-job verdicts (stop reason, steps, safety,
      completeness, recovery), fully deterministic: bit-identical at
      every [--jobs] count;
    - [serve-telemetry] — the cumulative session counters (sessions
      served, steps, ticks, largest batch, stop-reason histogram)
      plus wall-clock throughput, as a typed {!Stdx.Report} section.
      Clock-derived numbers vary run to run, which is why telemetry
      lives in its own report: the determinism pin compares
      results-only artifacts.

    Two entry points: {!spool} is the long-lived daemon (poll a
    directory, execute each batch file, stream one artifact per batch,
    accumulate telemetry); a [--once] run executes a single batch file
    and exits, which is what the cram tests drive. *)

type job = {
  label : string;
  protocol : Kernel.Protocol.t;
  protocol_name : string;
  channel : Channel.Chan.kind;
  input : int array;
  strategy : Kernel.Strategy.t;
  strategy_name : string;
  seed : int;
  max_steps : int;
  post_roll : int;
  max_seconds : float option;
  plan : Faults.Plan.t option;
  within : int;  (** recovery window when [plan] is present *)
}

type outcome = {
  job : job;
  result : Kernel.Runner.result;
  verdict : Core.Verdict.t;
  ttr : int option;  (** time to recover, for fault-plan jobs *)
}

val batch_of_json : Stdx.Json.t -> (job list, string) result
(** Parse a batch: either [{"jobs": [...]}] or a bare list of job
    objects.  Strict: any malformed job fails the whole batch with an
    error naming the job — a wrongly typed field, an unknown name, and
    a value out of range: a config field {!Kernel.Registry.build_protocol}
    rejects, an input {!Kernel.Registry.check_input} rejects (a symbol
    outside [\[0, domain)], or one the protocol will not build a sender
    for), a [drop:P] outside [\[0, 1\]], a negative ["max_seconds"] or
    ["within"].
    An accepted batch runs without raising.  See README for the
    field-by-field schema; everything except ["protocol"] and
    ["input"] has a default. *)

val load_batch : string -> (job list, string) result
(** Read and parse a batch file. *)

val run_batch : ?jobs:int -> job list -> outcome list * Kernel.Sched.stats
(** Execute the batch as [Core.Par.map ?jobs Kernel.Sched.run] over one
    session per job.  Outcomes are in job order and independent of
    [jobs]; the stats are {!Kernel.Sched.stats_of} the results, so
    they are too. *)

(* ------------------------- reports ------------------------- *)

val results_report : label:string -> outcome list -> Stdx.Report.t
(** The deterministic per-job report (id ["serve"], [ok = true]: the
    batch drained; failing jobs are data, not service failures). *)

type telemetry
(** Cumulative service counters across batches. *)

val telemetry_zero : telemetry

val observe : telemetry -> Kernel.Sched.stats -> wall_seconds:float -> telemetry
(** Fold one executed batch into the running totals. *)

val telemetry_report : telemetry -> Stdx.Report.t
(** Id ["serve-telemetry"]: a [telemetry] section with the session
    counters (its [peak_queue_depth] row is the largest batch), the
    stop-reason histogram, and steps/sec. *)

val artifact : ?results_only:bool -> results:Stdx.Report.t -> telemetry:Stdx.Report.t -> unit -> Stdx.Json.t
(** The report-set artifact a batch emits; [results_only] drops the
    telemetry report so artifacts can be byte-compared across job
    counts. *)

(* ------------------------- the daemon ------------------------- *)

val spool :
  ?jobs:int ->
  ?poll_seconds:float ->
  ?max_batches:int ->
  ?idle_exit:float ->
  dir:string ->
  unit ->
  (telemetry, string) result
(** Poll [dir] for batch files ([*.json], lexicographic order),
    execute each, write [<name>.report.json] beside it, and rename the
    input to [<name>.json.done] ([.failed] when {!load_batch} rejects
    it, which does not stop the daemon).  Reports land atomically: the bytes go
    to a dotted [.<name>.report.json.tmp] first and are renamed into
    place, so a concurrent reader (or a crash mid-write) can never
    observe a truncated artifact.  Stops after [max_batches] batch files
    (rejected ones count: the bound is on files processed) or
    after [idle_exit] seconds with nothing to do (default: run
    forever); returns the cumulative telemetry.  [poll_seconds]
    (default 0.5) is the idle sleep. *)
