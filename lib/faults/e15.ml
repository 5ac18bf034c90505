module Report = Stdx.Report
module Stab = Core.Stab

(* The Dolev-style contrast, executable: the indexed variant with
   absolute resync stabilises from every corrupted start (the sweep
   maximises its time-to-stabilise and the capped BFS closes with no
   reachable violation), while stock ABP — whose one alternating bit
   cannot tell a corrupted peer from a duplicate — has a corrupted
   start the same searcher drives to a real safety violation.  The
   witness is replayed through {!Kernel.Sim.apply} and, relabelled
   through the data symmetry, replayed again on the permuted input:
   it is a schedule, not a search artefact. *)

let report ?(within = 256) ?(max_steps = 20_000) ?(depth = 64) ?(max_states = 200_000)
    ?(max_sends = 4) () =
  let stab_p = Protocols.Abp_stab.protocol ~domain:2 ~max_len:4 in
  let sweep_input = [| 0; 1; 1; 0 |] in
  let sweep = Stab.sweep stab_p ~input:sweep_input ~within ~max_steps ~seed:7 () in
  (* Adversarial half, same caps for both protocols. *)
  let confirm p = Stab.confirm ~depth ~max_states ~max_sends p ~input:[| 0; 1 |] () in
  let abp = confirm (Protocols.Abp.protocol ~domain:2) in
  let witness_found =
    match abp.Stab.outcome with Stab.Violation _ -> true | Stab.No_violation _ -> false
  in
  let replayed = abp.Stab.replayed in
  let relabel_replayed = abp.Stab.relabel_replayed = Some true in
  let stab_closed, stab_states =
    match (confirm stab_p).Stab.outcome with
    | Stab.No_violation { closed; states } -> (closed, states)
    | Stab.Violation _ -> (false, 0)
  in
  let checks =
    Report.Metrics
      {
        title = Some "contrast checks";
        pairs =
          [
            ("abp-stab all stabilised", Report.bool sweep.Stab.all_stabilised);
            ("abp-stab worst tts", Report.opt_int sweep.Stab.worst_tts);
            ("abp-stab search closed, no violation", Report.bool stab_closed);
            ("abp-stab states explored", Report.int stab_states);
            ("abp witness found", Report.bool witness_found);
            ("abp witness replays to violation", Report.bool replayed);
            ("abp witness replays after relabel", Report.bool relabel_replayed);
          ];
      }
  in
  let ok =
    sweep.Stab.all_stabilised
    && sweep.Stab.worst_tts <> None
    && stab_closed && witness_found && replayed && relabel_replayed
  in
  Report.make ~id:"E15"
    ~title:"Self-stabilisation: corrupted-start sweep vs stock-ABP witness" ~ok
    ~notes:
      [
        Printf.sprintf
          "abp-stab: every corrupted start in the declared space converges (within=%d); \
           worst_tts is the maximum time-to-stabilise over the space"
          within;
        Printf.sprintf
          "capped BFS (sends<=%d/side, depth<=%d) closes abp-stab's corrupted-root space \
           with no reachable violation, and finds a corrupted ABP start it drives to a \
           real one"
          max_sends depth;
        "the ABP witness is replayed move-by-move, then relabelled through the data \
         symmetry and replayed on the permuted input — relabel-replayability";
      ]
    (checks
     :: Report.Section
          {
            heading = "abp-stab corrupted-start sweep";
            items = (Stab.sweep_report sweep).Report.items;
          }
     :: Stab.outcome_items abp.Stab.outcome)

let () =
  Kernel.Registry.register_experiment ~id:"E15"
    ~doc:"self-stabilisation: corrupted-start sweep and non-stabilising witness"
    ~quick:(fun () -> report ~within:256 ~max_steps:20_000 ())
    ~full:(fun () -> report ~within:512 ~max_steps:60_000 ~max_sends:5 ())
