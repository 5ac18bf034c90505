type stop_reason = Sched.stop_reason = Completed | Quiescent | Budget | Strategy_end

type result = Sched.result = { trace : Trace.t; stop : stop_reason; steps : int }

(* A run is a one-session scheduler batch: the per-session stepping in
   [Sched.step] is the historical run loop verbatim, so these wrappers
   produce byte-identical traces (pinned by the deterministic-
   interleaving tests and the engine baselines). *)

let run p ~input ~strategy ~rng ~max_steps ?max_seconds ?(post_roll = 0) () =
  match
    Sched.run [ Sched.session p ~input ~strategy ~rng ~max_steps ?max_seconds ~post_roll () ]
  with
  | [ r ] -> r
  | _ -> assert false

let pp_stop = Sched.pp_stop
