type stop_reason = Completed | Quiescent | Budget | Strategy_end

type result = { trace : Trace.t; stop : stop_reason; steps : int }

type session = {
  protocol : Protocol.t;
  input : int array;
  strategy : Strategy.t;
  rng : Stdx.Rng.t;
  max_steps : int;
  max_seconds : float option;
  post_roll : int;
  corrupt_sender : Proc.t option;
  corrupt_receiver : Proc.t option;
}

let session protocol ~input ~strategy ~rng ~max_steps ?max_seconds ?(post_roll = 0)
    ?corrupt_sender ?corrupt_receiver () =
  { protocol; input; strategy; rng; max_steps; max_seconds; post_roll; corrupt_sender;
    corrupt_receiver }

let run spec =
  let p = spec.protocol in
  let builder =
    Trace.start ?sender:spec.corrupt_sender ?receiver:spec.corrupt_receiver p ~input:spec.input
  in
  (* Wall-clock deadline, taken as the session starts; checked every
     256 steps so the loop stays syscall-free. *)
  let over_deadline = Stdx.Clock.deadline spec.max_seconds in
  (* [roll_left] counts the post-roll down once the output is complete
     ([-1] before that). *)
  let rec go steps roll_left =
    if steps >= spec.max_steps || (steps land 255 = 0 && over_deadline ()) then Budget
    else begin
      let g = Trace.current builder in
      if Global.complete g && roll_left <= 0 then Completed
      else begin
        let enabled = Sim.enabled p g in
        if (not (Global.complete g)) && Sim.wake_only_complete p g enabled then Quiescent
        else
          match spec.strategy.Strategy.choose spec.rng p g enabled with
          | None -> Strategy_end
          | Some move ->
              Trace.step builder move;
              let roll_left =
                if not (Global.complete (Trace.current builder)) then roll_left
                else if Global.complete g then roll_left - 1
                else spec.post_roll
              in
              go (steps + 1) roll_left
      end
    end
  in
  let stop =
    go 0 (if Global.complete (Trace.current builder) then spec.post_roll else -1)
  in
  let trace = Trace.finish builder in
  { trace; stop; steps = Trace.length trace }

type stats = {
  sessions : int;
  steps : int;
  ticks : int;
  peak_live : int;
  completed : int;
  quiescent : int;
  budget : int;
  strategy_end : int;
}

let stats_of results =
  let n = List.length results in
  let sum f = List.fold_left (fun acc (r : result) -> acc + f r) 0 results in
  let count stop = sum (fun r -> if r.stop = stop then 1 else 0) in
  {
    sessions = n;
    steps = sum (fun r -> r.steps);
    ticks = n;
    peak_live = n;
    completed = count Completed;
    quiescent = count Quiescent;
    budget = count Budget;
    strategy_end = count Strategy_end;
  }

let stats_zero = stats_of []

let stats_merge a b =
  {
    sessions = a.sessions + b.sessions;
    steps = a.steps + b.steps;
    ticks = a.ticks + b.ticks;
    peak_live = max a.peak_live b.peak_live;
    completed = a.completed + b.completed;
    quiescent = a.quiescent + b.quiescent;
    budget = a.budget + b.budget;
    strategy_end = a.strategy_end + b.strategy_end;
  }

let pp_stop ppf = function
  | Completed -> Format.pp_print_string ppf "completed"
  | Quiescent -> Format.pp_print_string ppf "quiescent"
  | Budget -> Format.pp_print_string ppf "budget-exhausted"
  | Strategy_end -> Format.pp_print_string ppf "strategy-ended"
