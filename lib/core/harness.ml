module Strategy = Kernel.Strategy
module Runner = Kernel.Runner

type spec = {
  strategies : Strategy.t list;
  seeds : int list;
  max_steps : int;
}

let default_spec ?(max_steps = 20_000) ?(n_seeds = 5) () =
  {
    strategies = [ Strategy.fair_random (); Strategy.round_robin; Strategy.newest_first ];
    seeds = List.init n_seeds (fun i -> i + 1);
    max_steps;
  }

type failure = {
  input : int list;
  strategy_name : string;
  seed : int;
  verdict : Verdict.t;
}

type report = {
  protocol_name : string;
  runs : int;
  safe_runs : int;
  complete_runs : int;
  audit_failures : int;
  failures : failure list;
  failures_total : int;
  steps : Stdx.Stats.summary option;
  messages : Stdx.Stats.summary option;
  messages_per_item : Stdx.Stats.summary option;
}

let verify (p : Kernel.Protocol.t) ~xs ?max_failures ?(jobs = 1) spec =
  (* All (input, strategy, seed) cells become one scheduler batch; the
     fold below walks the results in the historical nested-loop order,
     so counts, stats, and the chronological failure list are
     unchanged.  [jobs] defaults to 1 (not [STP_JOBS]) because
     {!Census} calls verify from inside a [Par.map] task and batches
     do not nest; pass an explicit [~jobs] to fan out. *)
  let cells =
    List.concat_map
      (fun input ->
        List.concat_map
          (fun strategy -> List.map (fun seed -> (input, strategy, seed)) spec.seeds)
          spec.strategies)
      xs
  in
  let sessions =
    List.map
      (fun (input, strategy, seed) ->
        Kernel.Sched.session p ~input:(Array.of_list input) ~strategy
          ~rng:(Stdx.Rng.create seed) ~max_steps:spec.max_steps ())
      cells
  in
  let results = Batch.run ~jobs sessions in
  let runs = ref 0 and safe = ref 0 and complete = ref 0 and audit_bad = ref 0 in
  (* Failures are kept in chronological order; [max_failures] caps how
     many are *stored* (the earliest ones), never how many are
     counted. *)
  let failures = ref [] and stored = ref 0 and failures_total = ref 0 in
  let steps = ref [] and messages = ref [] and per_item = ref [] in
  List.iter2
    (fun (input, strategy, seed) (result : Runner.result) ->
      let v = Verdict.of_result result in
      let audit_ok = (Kernel.Audit.run result.Runner.trace).Kernel.Audit.ok in
      if not audit_ok then incr audit_bad;
      incr runs;
      if v.Verdict.safe then incr safe;
      if v.Verdict.complete then incr complete;
      if Verdict.all_good v then begin
        steps := float_of_int v.Verdict.steps :: !steps;
        messages := float_of_int v.Verdict.messages :: !messages;
        let n = List.length input in
        if n > 0 then
          per_item := (float_of_int v.Verdict.messages /. float_of_int n) :: !per_item
      end
      else begin
        incr failures_total;
        if match max_failures with Some cap -> !stored < cap | None -> true then begin
          incr stored;
          failures :=
            { input; strategy_name = strategy.Strategy.name; seed; verdict = v } :: !failures
        end
      end)
    cells results;
  {
    protocol_name = p.Kernel.Protocol.name;
    runs = !runs;
    safe_runs = !safe;
    complete_runs = !complete;
    audit_failures = !audit_bad;
    failures = List.rev !failures;
    failures_total = !failures_total;
    steps = Stdx.Stats.summarize !steps;
    messages = Stdx.Stats.summarize !messages;
    messages_per_item = Stdx.Stats.summarize !per_item;
  }

let clean r = r.failures_total = 0 && r.audit_failures = 0

let pp_report ppf r =
  Format.fprintf ppf "%s: %d runs, %d safe, %d complete, %d failures" r.protocol_name r.runs
    r.safe_runs r.complete_runs r.failures_total;
  match r.messages_per_item with
  | Some s -> Format.fprintf ppf " (msgs/item mean %.1f)" s.Stdx.Stats.mean
  | None -> ()

let to_report r =
  let module R = Stdx.Report in
  let fcell = function Some (s : Stdx.Stats.summary) -> R.float s.mean | None -> R.str "-" in
  let metrics =
    R.Metrics
      {
        title = None;
        pairs =
          [
            ("protocol", R.str r.protocol_name);
            ("runs", R.int r.runs);
            ("safe_runs", R.int r.safe_runs);
            ("complete_runs", R.int r.complete_runs);
            ("audit_failures", R.int r.audit_failures);
            ("failures", R.int r.failures_total);
            ("steps_mean", fcell r.steps);
            ("messages_mean", fcell r.messages);
            ("messages_per_item_mean", fcell r.messages_per_item);
          ];
      }
  in
  let items =
    if r.failures = [] then [ metrics ]
    else begin
      let t =
        R.table ~title:"failures (chronological)"
          [
            ("input", R.Left);
            ("strategy", R.Left);
            ("seed", R.Right);
            ("verdict", R.Left);
          ]
      in
      List.iter
        (fun f ->
          R.row t
            [
              R.str (Seqspace.Xset.sequence_text f.input);
              R.str f.strategy_name;
              R.int f.seed;
              R.str (Format.asprintf "%a" Verdict.pp f.verdict);
            ])
        r.failures;
      [ metrics; R.finish t ]
    end
  in
  let notes =
    if r.failures_total > List.length r.failures then
      [
        Printf.sprintf "failure list truncated: showing the first %d of %d"
          (List.length r.failures) r.failures_total;
      ]
    else []
  in
  R.make ~id:"verify"
    ~title:(Printf.sprintf "batch verification of %s" r.protocol_name)
    ~ok:(clean r) ~notes items
