type stop_reason = Sched.stop_reason = Completed | Quiescent | Budget | Strategy_end

type result = Sched.result = { trace : Trace.t; stop : stop_reason; steps : int }

let run p ~input ~strategy ~rng ~max_steps ?max_seconds ?(post_roll = 0) () =
  Sched.run (Sched.session p ~input ~strategy ~rng ~max_steps ?max_seconds ~post_roll ())

let pp_stop = Sched.pp_stop
