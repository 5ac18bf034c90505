module Report = Stdx.Report
module Rng = Stdx.Rng
module Chan = Channel.Chan
module Strategy = Kernel.Strategy

type case = {
  label : string;
  protocol : Kernel.Protocol.t;
  input : int array;
  plan : Plan.t;
  base : Kernel.Strategy.t;
  within : int;
  max_steps : int;
}

type outcome = { case : case; verdict : Core.Verdict.t; ttr : int option }

let session_of_case ~rng case =
  let strategy = Inject.strategy ~plan:case.plan ~base:case.base in
  Kernel.Sched.session case.protocol ~input:case.input ~strategy ~rng
    ~max_steps:case.max_steps ()

let outcome_of_result case result =
  let verdict, ttr = Inject.verdict ~plan:case.plan ~within:case.within result in
  { case; verdict; ttr }

let run_case ~rng case =
  match Core.Batch.run ~jobs:1 [ session_of_case ~rng case ] with
  | [ r ] -> outcome_of_result case r
  | _ -> assert false

(* ------------------------- batteries ------------------------- *)

let drop1 = { Plan.name = "drop1"; events = [ Plan.Drop_burst { at = 6; target = Plan.To_receiver; count = 1 } ] }

let drop3 = { Plan.name = "drop3"; events = [ Plan.Drop_burst { at = 6; target = Plan.To_receiver; count = 3 } ] }

let crash_r = { Plan.name = "crashR"; events = [ Plan.Crash_restart { at = 8; who = Plan.Receiver } ] }

let default_battery ?(random_plans = 4) ~seed () =
  let xset = Seqspace.Xset.All_upto { domain = 2; max_len = 4 } in
  let abp = Protocols.Abp.protocol ~domain:2 in
  let ladder = Protocols.Ladder.protocol ~xset ~drop_budget:1 in
  let hybrid = Protocols.Hybrid.protocol ~xset ~domain:2 ~drop_budget:1 ~timeout:6 () in
  let case label protocol input plan within max_steps =
    { label; protocol; input; plan; base = Strategy.round_robin; within; max_steps }
  in
  let scripted =
    [
      case "abp/drop1" abp [| 0; 1; 1; 0 |] drop1 64 20_000;
      case "abp/crashR" abp [| 0; 1; 1; 0 |] crash_r 64 20_000;
      case "ladder/drop1" ladder [| 0; 1 |] drop1 4096 200_000;
      case "ladder/drop3" ladder [| 0; 1 |] drop3 4096 200_000;
      case "hybrid/drop1" hybrid [| 0; 1; 0; 1 |] drop1 64 200_000;
    ]
  in
  let rng = Rng.create seed in
  let random_cases =
    List.concat_map
      (fun (tag, stream, protocol, input, within, max_steps) ->
        List.init random_plans (fun i ->
            let child = Rng.split (Rng.split rng stream) i in
            let plan =
              Plan.random ~channel:protocol.Kernel.Protocol.channel ~rng:child
                ~name:(Printf.sprintf "rnd%d" i) ()
            in
            case (Printf.sprintf "%s/rnd%d" tag i) protocol input plan within max_steps))
      [
        ("abp", 0, abp, [| 0; 1; 1; 0 |], 64, 20_000);
        ("ladder", 1, ladder, [| 0; 1 |], 4096, 200_000);
        ("hybrid", 2, hybrid, [| 0; 1; 0; 1 |], 4096, 200_000);
      ]
  in
  scripted @ random_cases

let corrupt ~at ~who ~index = Plan.Corrupt_state { at; who; index }

let stab_battery ?(random_plans = 2) ~seed () =
  let abp_stab = Protocols.Abp_stab.protocol ~domain:2 ~max_len:4 in
  let stn_stab = Protocols.Stenning_stab.protocol ~domain:2 ~max_len:4 in
  let gbn_stab = Protocols.Gbn_stab.protocol ~domain:2 ~max_len:4 ~window:2 in
  let abp = Protocols.Abp.protocol ~domain:2 in
  let input = [| 0; 1; 1; 0 |] in
  let sizes p =
    match Kernel.Protocol.corrupt_space p ~input with
    | Some sp -> sp
    | None -> invalid_arg (p.Kernel.Protocol.name ^ ": no corrupted-start space")
  in
  let abp_ns, _ = sizes abp in
  (* The corrupted-start resync costs a couple of full round trips
     more than an in-protocol drop, so the window is wider than the
     default battery's. *)
  let case label protocol plan =
    { label; protocol; input; plan; base = Strategy.round_robin; within = 256; max_steps = 20_000 }
  in
  (* Scripted: every single-sided corrupted start of each stabilising
     family, sender corruptions at t=0 and receiver ones at t=1.
     Receiver corruption is legal at {e any} time under the
     written-count convention — the enumeration re-anchors to the live
     tape length — but t=1 keeps these points comparable to the
     corrupted-{e start} sweeps of E15/E17. *)
  let scripted =
    List.concat_map
      (fun (tag, p) ->
        let ns, nr = sizes p in
        List.init ns (fun i ->
            case (Printf.sprintf "%s/cS%d" tag i) p
              { Plan.name = Printf.sprintf "cS%d" i;
                events = [ corrupt ~at:0 ~who:Plan.Sender ~index:i ] })
        @ List.init nr (fun i ->
            case (Printf.sprintf "%s/cR%d" tag i) p
              { Plan.name = Printf.sprintf "cR%d" i;
                events = [ corrupt ~at:1 ~who:Plan.Receiver ~index:i ] }))
      [ ("abp-stab", abp_stab); ("stenning-stab", stn_stab); ("gbn-stab", gbn_stab) ]
  in
  (* Composed: a corrupted start followed by mid-run faults in the same
     plan — the stabiliser must resync and then ride out ordinary
     noise.  The midR cases corrupt the receiver long after writes
     have landed, exercising the mid-run re-anchoring directly. *)
  let composed =
    [
      case "abp-stab/cS4+drop3" abp_stab
        { Plan.name = "cS4+drop3";
          events =
            [ corrupt ~at:0 ~who:Plan.Sender ~index:4;
              Plan.Drop_burst { at = 10; target = Plan.To_receiver; count = 3 } ] };
      case "abp-stab/drop1+midR" abp_stab
        { Plan.name = "drop1+midR";
          events =
            [ Plan.Drop_burst { at = 4; target = Plan.To_sender; count = 1 };
              corrupt ~at:40 ~who:Plan.Receiver ~index:0 ] };
      case "stenning-stab/cS4+storm" stn_stab
        { Plan.name = "cS4+storm";
          events =
            [ corrupt ~at:0 ~who:Plan.Sender ~index:4; Plan.Reorder_storm { at = 6; len = 4 } ] };
      case "gbn-stab/cR1+crashS" gbn_stab
        { Plan.name = "cR1+crashS";
          events =
            [ corrupt ~at:1 ~who:Plan.Receiver ~index:1;
              Plan.Crash_restart { at = 12; who = Plan.Sender } ] };
      case "gbn-stab/cS2+blackout+midR" gbn_stab
        { Plan.name = "cS2+blackout+midR";
          events =
            [ corrupt ~at:0 ~who:Plan.Sender ~index:2;
              Plan.Blackout { at = 8; len = 4 };
              corrupt ~at:48 ~who:Plan.Receiver ~index:1 ] };
    ]
  in
  (* Contrast: stock ABP from the same kind of corrupted starts — the
     battery records which ones it fails to ride out. *)
  let contrast =
    List.init abp_ns (fun i ->
        case (Printf.sprintf "abp/cS%d" i) abp
          { Plan.name = Printf.sprintf "cS%d" i; events = [ corrupt ~at:0 ~who:Plan.Sender ~index:i ] })
  in
  (* Random plans draw from the full (ns, nr) corruption space — the
     written-count convention makes a randomly-timed receiver
     corruption as legal as a sender one.  Per-protocol [Rng.split]
     streams keep each family's draws independent of the others. *)
  let rng = Rng.create seed in
  let random_cases =
    List.concat_map
      (fun (stream, tag, p) ->
        List.init random_plans (fun i ->
            let plan =
              Plan.random ~channel:p.Kernel.Protocol.channel
                ~rng:(Rng.split (Rng.split rng stream) i)
                ~corrupt_space:(sizes p) ~name:(Printf.sprintf "rnd%d" i) ()
            in
            case (Printf.sprintf "%s/rnd%d" tag i) p plan))
      [ (0, "abp-stab", abp_stab); (1, "stenning-stab", stn_stab); (2, "gbn-stab", gbn_stab) ]
  in
  scripted @ composed @ contrast @ random_cases

(* ------------------------- the report ------------------------- *)

(* Dispatch in fixed chunks regardless of [jobs] so the set of cases
   that ran before a deadline does not depend on the job count more
   than the deadline itself does — and without a deadline, not at
   all. *)
let chunk_size = 8

let rec chunks n = function
  | [] -> []
  | xs ->
      let rec take k = function
        | x :: tl when k > 0 ->
            let hd, rest = take (k - 1) tl in
            (x :: hd, rest)
        | rest -> ([], rest)
      in
      let hd, rest = take n xs in
      hd :: chunks n rest

let run ?jobs ?max_seconds ~seed cases =
  let jobs = match jobs with Some j -> j | None -> Core.Par.default_jobs () in
  let deadline = Stdx.Clock.deadline max_seconds in
  let indexed = List.mapi (fun i c -> (i, c)) cases in
  let base = Rng.create seed in
  let outcomes, skipped =
    List.fold_left
      (fun (acc, skipped) chunk ->
        if deadline () then (acc, skipped + List.length chunk)
        else begin
          (* Each chunk is one scheduler batch sharded over the domain
             pool; per-case [Rng.split] streams keep the results
             bit-identical at every job count. *)
          let sessions =
            List.map (fun (i, c) -> session_of_case ~rng:(Rng.split base i) c) chunk
          in
          let results =
            List.map2
              (fun (_, c) r -> outcome_of_result c r)
              chunk
              (Core.Batch.run ~jobs sessions)
          in
          (acc @ results, skipped)
        end)
      ([], 0)
      (chunks chunk_size indexed)
  in
  let total = List.length cases in
  let ran = List.length outcomes in
  let count f = List.length (List.filter f outcomes) in
  let safe = count (fun o -> o.verdict.Core.Verdict.safe) in
  let complete = count (fun o -> o.verdict.Core.Verdict.complete) in
  let recovered = count (fun o -> o.verdict.Core.Verdict.recovered = Some true) in
  let metrics =
    Report.Metrics
      {
        title = Some "battery";
        pairs =
          [
            ("cases", Report.int total);
            ("ran", Report.int ran);
            ("safe", Report.int safe);
            ("complete", Report.int complete);
            ("recovered", Report.int recovered);
            ("truncated", Report.bool (skipped > 0));
          ];
      }
  in
  let b =
    Report.table ~title:"per-case outcomes"
      [
        ("case", Report.Left);
        ("protocol", Report.Left);
        ("channel", Report.Left);
        ("plan", Report.Left);
        ("safe", Report.Right);
        ("complete", Report.Right);
        ("recovered", Report.Right);
        ("steps", Report.Right);
        ("ttr", Report.Right);
      ]
  in
  List.iter
    (fun o ->
      let v = o.verdict in
      Report.row b
        [
          Report.str o.case.label;
          Report.str o.case.protocol.Kernel.Protocol.name;
          Report.str (Chan.kind_name o.case.protocol.Kernel.Protocol.channel);
          Report.str (Plan.to_string o.case.plan);
          Report.bool v.Core.Verdict.safe;
          Report.bool v.Core.Verdict.complete;
          Report.bool (v.Core.Verdict.recovered = Some true);
          Report.int v.Core.Verdict.steps;
          Report.opt_int o.ttr;
        ])
    outcomes;
  let ttrs = List.filter_map (fun o -> Option.map float_of_int o.ttr) outcomes in
  let histo =
    match Stdx.Stats.histogram ~buckets:6 ttrs with
    | [] -> []
    | hs ->
        let hb =
          Report.table ~title:"time-to-recover histogram (steps)"
            [ ("lo", Report.Right); ("hi", Report.Right); ("count", Report.Right) ]
        in
        List.iter
          (fun (lo, hi, n) ->
            Report.row hb [ Report.float lo; Report.float hi; Report.int n ])
          hs;
        [ Report.finish hb ]
  in
  let notes =
    if skipped > 0 then
      [
        Printf.sprintf
          "TRUNCATED: wall-clock budget exhausted after %d/%d cases; %d skipped" ran
          total skipped;
      ]
    else []
  in
  Report.make ~id:"soak"
    ~title:(Printf.sprintf "fault-injection soak battery (seed %d)" seed)
    ~ok:(skipped = 0) ~notes
    (metrics :: Report.finish b :: histo)
