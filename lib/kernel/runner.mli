(** Run driver: one protocol, one input, one strategy, one trace.

    The labelled-argument front of {!Sched.run}: [run] builds one
    session and runs it to its stop.  Batch engines build session
    lists and map {!Sched.run} over them. *)

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

val pp_stop : Format.formatter -> stop_reason -> unit
