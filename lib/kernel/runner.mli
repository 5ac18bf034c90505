(** Run driver: one protocol, one input, one strategy, one trace.

    Since the scheduler refactor this is a thin single-session wrapper
    over {!Sched}: [run] admits exactly one session and drains the
    queue, so its traces are byte-identical to the historical
    monolithic loop, and batch engines that want many concurrent runs
    use {!Sched} (or [Core.Batch]) directly. *)

type stop_reason = Sched.stop_reason =
  | Completed  (** the whole input was written and the post-roll ran out *)
  | Quiescent  (** nothing can ever change again (see {!Sim.wake_only_complete}) *)
  | Budget  (** the step budget was exhausted before completion *)
  | Strategy_end  (** the strategy returned [None] *)

type result = Sched.result = {
  trace : Trace.t;
  stop : stop_reason;
  steps : int;
}

val run :
  Protocol.t ->
  input:int array ->
  strategy:Strategy.t ->
  rng:Stdx.Rng.t ->
  max_steps:int ->
  ?max_seconds:float ->
  ?post_roll:int ->
  unit ->
  result
(** Drives the system until the output is complete (then for
    [post_roll] extra moves, default 0 — knowledge measurements want a
    tail), quiescence, step budget, or strategy surrender.  Every
    transition is recorded in the trace.  [max_seconds] adds a
    wall-clock guard ({!Stdx.Clock}) on top of the step budget
    (checked every 256 steps); exceeding either reports [Budget]. *)

val run_seeds :
  Protocol.t ->
  input:int array ->
  strategy:Strategy.t ->
  seeds:int list ->
  max_steps:int ->
  ?max_seconds:float ->
  ?post_roll:int ->
  unit ->
  result list
(** One run per seed.  [max_seconds] bounds {e each} run's wall time,
    exactly as on {!run} — a battery of [n] seeds may therefore use up
    to [n * max_seconds] in total. *)

val pp_stop : Format.formatter -> stop_reason -> unit
