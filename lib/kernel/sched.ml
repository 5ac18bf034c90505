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

let stats_zero =
  {
    sessions = 0;
    steps = 0;
    ticks = 0;
    peak_live = 0;
    completed = 0;
    quiescent = 0;
    budget = 0;
    strategy_end = 0;
  }

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

(* A live session: the spec plus the in-flight trace and budget
   counters.  [index] remembers the admission slot so results come
   back in input order whatever the retirement order. *)
type live = {
  spec : session;
  index : int;
  builder : Trace.builder;
  over_deadline : unit -> bool;
  mutable steps : int;
  mutable roll_left : int;
}

let admit index (spec : session) =
  let builder =
    Trace.start ?sender:spec.corrupt_sender ?receiver:spec.corrupt_receiver spec.protocol
      ~input:spec.input
  in
  {
    spec;
    index;
    builder;
    (* Wall-clock deadline, fixed at admission; checked every 256
       steps so the hot loop stays syscall-free. *)
    over_deadline = Stdx.Clock.deadline spec.max_seconds;
    steps = 0;
    roll_left = (if Global.complete (Trace.current builder) then spec.post_roll else -1);
  }

(* One step of one session.  [Some stop] retires it; [None] means a
   move was applied and recorded.  The branch structure replicates the
   single-run driver this scheduler replaced, so a one-session batch
   reproduces its traces byte for byte. *)
let step l =
  let p = l.spec.protocol in
  if l.steps >= l.spec.max_steps || (l.steps land 255 = 0 && l.over_deadline ()) then
    Some Budget
  else begin
    let g = Trace.current l.builder in
    if Global.complete g && l.roll_left <= 0 then Some Completed
    else begin
      let enabled = Sim.enabled p g in
      if (not (Global.complete g)) && List.length enabled = 2 && Sim.wake_only_complete p g
      then Some Quiescent
      else
        match l.spec.strategy.Strategy.choose l.spec.rng p g enabled with
        | None -> Some Strategy_end
        | Some move ->
            let g' = Sim.apply p g move in
            Trace.record l.builder move g';
            if Global.complete g' then
              l.roll_left <- (if Global.complete g then l.roll_left - 1 else l.spec.post_roll);
            l.steps <- l.steps + 1;
            None
    end
  end

let default_timeslice = 128

let run_stats ?(timeslice = default_timeslice) sessions =
  if timeslice < 1 then invalid_arg "Sched.run: timeslice must be >= 1";
  let n = List.length sessions in
  let results = Array.make (max n 1) None in
  let queue = Queue.create () in
  List.iteri (fun i spec -> Queue.add (admit i spec) queue) sessions;
  let steps_total = ref 0 and ticks = ref 0 in
  let completed = ref 0 and quiescent = ref 0 and budget = ref 0 and strategy_end = ref 0 in
  let retire l stop =
    let trace = Trace.finish l.builder in
    results.(l.index) <- Some { trace; stop; steps = Trace.length trace };
    steps_total := !steps_total + l.steps;
    incr
      (match stop with
      | Completed -> completed
      | Quiescent -> quiescent
      | Budget -> budget
      | Strategy_end -> strategy_end)
  in
  while not (Queue.is_empty queue) do
    let l = Queue.pop queue in
    incr ticks;
    let rec slice k =
      if k = 0 then Queue.add l queue
      else
        match step l with
        | None -> slice (k - 1)
        | Some stop -> retire l stop
    in
    slice timeslice
  done;
  let results = List.init n (fun i -> Option.get results.(i)) in
  ( results,
    {
      sessions = n;
      steps = !steps_total;
      ticks = !ticks;
      peak_live = n;
      completed = !completed;
      quiescent = !quiescent;
      budget = !budget;
      strategy_end = !strategy_end;
    } )

let run ?timeslice sessions = fst (run_stats ?timeslice sessions)

let pp_stop ppf = function
  | Completed -> Format.pp_print_string ppf "completed"
  | Quiescent -> Format.pp_print_string ppf "quiescent"
  | Budget -> Format.pp_print_string ppf "budget-exhausted"
  | Strategy_end -> Format.pp_print_string ppf "strategy-ended"
