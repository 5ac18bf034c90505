module Report = Stdx.Report
module Stab = Core.Stab

(* E15 established the stabilisation contrast for one protocol pair;
   E17 runs it across the bounded-counter families.  The positive
   half sweeps every stabilising family's corrupted-start space over
   a grid of alphabet sizes and input lengths and reports the
   worst-case time-to-stabilise curve — the scaling data behind the
   claim that absolute resync converges in O(round trips) while
   pipelining (gbn-stab) flattens the growth.  The negative half runs
   the capped corrupted-root BFS against each stock family: every
   bounded-counter protocol that aliases sequence numbers (or counts
   in unary) yields a replayable violation witness, while stock
   Stenning — unbounded headers, forward-only acks — is the control
   that is safe from every corrupted start yet refuses to converge. *)

(* The scaling input: the first [len] symbols cycling through the
   alphabet, so every domain value occurs once the length allows. *)
let cycle_input ~domain ~len = Array.init len (fun i -> i mod domain)

type curve_point = {
  family : string;
  domain : int;
  len : int;
  space : int;
  stabilised : int;
  worst_tts : int option;
  all : bool;
}

let curve ~within ~max_steps ~domains ~lens ~window =
  let families =
    [
      ("abp-stab", fun ~domain ~max_len -> Protocols.Abp_stab.protocol ~domain ~max_len);
      ( "stenning-stab",
        fun ~domain ~max_len -> Protocols.Stenning_stab.protocol ~domain ~max_len );
      ( "gbn-stab",
        fun ~domain ~max_len -> Protocols.Gbn_stab.protocol ~domain ~max_len ~window );
    ]
  in
  List.concat_map
    (fun (family, mk) ->
      List.concat_map
        (fun domain ->
          List.map
            (fun len ->
              let p = mk ~domain ~max_len:len in
              let input = cycle_input ~domain ~len in
              let s = Stab.sweep p ~input ~within ~max_steps ~seed:7 () in
              {
                family;
                domain;
                len;
                space = s.Stab.space_size;
                stabilised = s.Stab.stabilised;
                worst_tts = s.Stab.worst_tts;
                all = s.Stab.all_stabilised;
              })
            lens)
        domains)
    families

let report ?(within = 256) ?(max_steps = 20_000) ?(depth = 64) ?(max_states = 200_000)
    ?(max_sends = 4) ?(domains = [ 2; 3 ]) ?(lens = [ 2; 3; 4 ]) ?(window = 2) () =
  let points = curve ~within ~max_steps ~domains ~lens ~window in
  let ct =
    Report.table ~title:"worst time-to-stabilise over the corrupted-start space"
      [
        ("family", Report.Left);
        ("m", Report.Right);
        ("n", Report.Right);
        ("space", Report.Right);
        ("stabilised", Report.Right);
        ("worst_tts", Report.Right);
      ]
  in
  List.iter
    (fun c ->
      Report.row ct
        [
          Report.str c.family;
          Report.int c.domain;
          Report.int c.len;
          Report.int c.space;
          Report.int c.stabilised;
          Report.opt_int c.worst_tts;
        ])
    points;
  let curves_ok = List.for_all (fun c -> c.all && c.worst_tts <> None) points in
  (* The stock victims.  stenning-mod and go-back-n corrupt only
     counters (relabel-replayable); selective-repeat's poisoned
     buffers carry literal data and ladder has no data symmetry at
     all, so those witnesses are replay-checked only. *)
  let input4 = [| 0; 1; 1; 0 |] in
  let xset = Seqspace.Xset.All_upto { domain = 2; max_len = 2 } in
  let victims =
    [
      ("abp", Protocols.Abp.protocol ~domain:2, [| 0; 1 |], true);
      ( "stenning-mod",
        Protocols.Stenning_mod.protocol_on Channel.Chan.Fifo_lossy ~domain:2 ~header_space:2,
        input4,
        true );
      ("go-back-n", Protocols.Go_back_n.protocol ~domain:2 ~window:2, input4, true);
      ("selective-repeat", Protocols.Selective_repeat.protocol ~domain:2 ~window:2, input4, false);
      ("ladder", Protocols.Ladder.protocol ~xset ~drop_budget:1, [| 0; 1 |], false);
    ]
  in
  let vt =
    Report.table ~title:"corrupted-root witness search per stock family"
      [
        ("family", Report.Left);
        ("outcome", Report.Left);
        ("replayed", Report.Right);
        ("relabel-replayed", Report.Right);
      ]
  in
  (* Each stock victim: search its corrupted-root space, replay any
     witness, and relabel-replay it where the family's perturb
     enumeration is data-independent. *)
  let victim_ok (family, p, input, relabel) =
    let c = Stab.confirm ~depth ~max_states ~max_sends ~relabel p ~input () in
    let outcome, found =
      match c.Stab.outcome with
      | Stab.Violation w ->
          ( Printf.sprintf "VIOLATION@%d from (%s, %s)" w.Stab.violation_depth
              w.Stab.w_s_label w.Stab.w_r_label,
            true )
      | Stab.No_violation { closed; states } ->
          (Printf.sprintf "%s (%d states)" (if closed then "closed" else "TRUNCATED") states, false)
    in
    Report.row vt
      [
        Report.str family;
        Report.str outcome;
        Report.bool c.Stab.replayed;
        Report.str
          (match c.Stab.relabel_replayed with
          | None -> "n/a"
          | Some true -> "yes"
          | Some false -> "no");
      ];
    found && c.Stab.replayed && c.Stab.relabel_replayed <> Some false
  in
  let victims_ok = List.for_all Fun.id (List.map victim_ok victims) in
  (* The control: stock Stenning is safe from every corrupted start
     (the capped BFS closes clean) but does not converge (a corrupted
     cursor deadlocks the sweep's fair scheduler too). *)
  let stn = Protocols.Stenning.protocol ~domain:2 ~max_len:4 in
  let stn_closed =
    match (Stab.confirm ~depth ~max_states ~max_sends stn ~input:input4 ()).Stab.outcome with
    | Stab.No_violation { closed; _ } -> closed
    | Stab.Violation _ -> false
  in
  let stn_sweep = Stab.sweep stn ~input:input4 ~within ~max_steps ~seed:7 () in
  let checks =
    Report.Metrics
      {
        title = Some "family checks";
        pairs =
          [
            ("stabilising curves all converge", Report.bool curves_ok);
            ("curve points", Report.int (List.length points));
            ("stock victims witnessed and replayed", Report.bool victims_ok);
            ("stenning search closed, no violation", Report.bool stn_closed);
            ( "stenning converges from corrupted starts",
              Report.bool stn_sweep.Stab.all_stabilised );
          ];
      }
  in
  let ok = curves_ok && victims_ok && stn_closed && not stn_sweep.Stab.all_stabilised in
  Report.make ~id:"E17"
    ~title:"Stabilisation beyond ABP: family scaling curves and per-family witnesses" ~ok
    ~notes:
      [
        Printf.sprintf
          "positive half: worst-case time-to-stabilise for each stabilising family over \
           alphabet sizes m in {%s} and input lengths n in {%s} (within=%d); every \
           corrupted start must converge"
          (String.concat "," (List.map string_of_int domains))
          (String.concat "," (List.map string_of_int lens))
          within;
        Printf.sprintf
          "negative half: capped BFS (sends<=%d/side, depth<=%d) over each stock \
           family's corrupted roots; every aliasing family yields a replayed violation \
           witness, relabel-replayed where the enumeration is data-independent"
          max_sends depth;
        "control: stock stenning closes clean (unbounded headers are safe from any \
         start) yet fails to converge — forward-only acks cannot rewind a corrupted \
         cursor, the liveness half of the stabilisation bound";
      ]
    [ checks; Report.finish ct; Report.finish vt ]

let () =
  Kernel.Registry.register_experiment ~id:"E17"
    ~doc:"stabilisation scaling curves and witnesses across the bounded-counter families"
    ~quick:(fun () -> report ())
    ~full:(fun () ->
      report ~within:512 ~max_steps:60_000 ~max_sends:5 ~lens:[ 2; 3; 4; 5 ] ())
