(** Sessions: one run as data, and the one loop that steps it.

    A {e session} is the full specification of one run (protocol ×
    input × strategy × rng × budgets): one finite prefix of a run of
    the model.  {!run} steps a session from its first step to its stop
    (the usual stop reasons below), and a batch of sessions is
    [Core.Par.map ?jobs Sched.run sessions], or [List.map Sched.run]
    where no domain pool is at hand.

    {b Determinism.}  Sessions are independent by construction: each
    owns its rng and trace builder, strategies are stateless by the
    {!Strategy} contract, and {!Sim.apply} is a pure function of the
    per-run state.  A session's result therefore depends only on its
    own spec, never on which domain runs it or what ran before, so a
    batch is byte-identical to sequential {!Runner.run} calls at every
    job count (the deterministic-batch tests pin this at several
    [--jobs] counts).  A [max_seconds] deadline starts at the
    session's first step, so it budgets that session alone. *)

type stop_reason =
  | Completed  (** the whole input was written and the post-roll ran out *)
  | Quiescent  (** nothing can ever change again (see {!Sim.wake_only_complete}) *)
  | Budget  (** the step budget (or [max_seconds]) was exhausted *)
  | Strategy_end  (** the strategy returned [None] *)

type result = {
  trace : Trace.t;
  stop : stop_reason;
  steps : int;
}

type session
(** One run, fully specified and not yet started. *)

val session :
  Protocol.t ->
  input:int array ->
  strategy:Strategy.t ->
  rng:Stdx.Rng.t ->
  max_steps:int ->
  ?max_seconds:float ->
  ?post_roll:int ->
  ?corrupt_sender:Proc.t ->
  ?corrupt_receiver:Proc.t ->
  unit ->
  session
(** The session owns [rng] from here on: reusing one generator across
    two sessions of a batch makes their streams order-dependent and
    forfeits the determinism guarantee.
    [?corrupt_sender]/[?corrupt_receiver] root the run at corrupted
    local states (the {!Global.initial} overrides) — the step-0
    injection seam stabilisation sweeps use. *)

val run : session -> result
(** Step the session until the output is complete (then for
    [post_roll] extra moves), quiescence, the step budget, or strategy
    surrender.  Every transition is recorded in the trace.  The
    [max_seconds] guard ({!Stdx.Clock}) starts here and is checked
    every 256 steps; exceeding it reports [Budget]. *)

type stats = {
  sessions : int;  (** sessions run *)
  steps : int;  (** total {!Sim.apply} steps across all sessions *)
  ticks : int;  (** one per session run *)
  peak_live : int;  (** the batch's session count *)
  completed : int;
  quiescent : int;
  budget : int;
  strategy_end : int;  (** stop-reason histogram; the four sum to [sessions] *)
}
(** Batch telemetry, exact and deterministic (no clocks): what a
    long-lived service accumulates across batches.  [ticks] and
    [peak_live] are kept for the telemetry schema. *)

val stats_of : result list -> stats
(** The telemetry of one batch, from its results. *)

val stats_zero : stats

val stats_merge : stats -> stats -> stats
(** Componentwise sums; [peak_live] is the max (the largest batch). *)

val pp_stop : Format.formatter -> stop_reason -> unit
