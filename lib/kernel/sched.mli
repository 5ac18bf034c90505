(** Tick-driven event-queue scheduler: many live sessions per domain.

    Every engine in the repo used to drive exactly one run at a time
    through a monolithic while-loop; the scheduler inverts that.  A
    {e session} is the full specification of one run (protocol ×
    input × strategy × rng × budgets).  The scheduler admits a batch
    of sessions into a FIFO queue of live runs and round-robins over
    it: each {e tick} pops one session, advances it by at most
    [timeslice] {!Sim.apply} steps, and either retires it (on the
    usual stop reasons) or re-enqueues it.  One domain therefore
    timeslices arbitrarily many concurrent runs, which is what a
    million-session battery needs — runs-per-domain stops being the
    unit of concurrency; states-per-second is.

    {b Determinism.}  Sessions are independent by construction: each
    owns its rng and trace builder, strategies are stateless by the
    {!Strategy} contract, and {!Sim.apply} is a pure function of the
    per-run state.  A session's steps therefore depend only on its own
    spec, never on how its slices interleave with other sessions', so
    a batch of [n] sessions produces traces {e byte-identical} to [n]
    sequential {!Runner.run} calls, at every timeslice and in any
    interleaving (the deterministic-interleaving tests pin this at
    several [--jobs] counts).  The one advisory exception is
    [max_seconds]: the guard reads the wall clock ({!Stdx.Clock}),
    which in a batch also advances while {e other} sessions run, so a
    budgeted session may retire earlier in a crowded batch — traces up
    to that point are still identical.

    The queue policy is deliberately a seam: round-robin is the only
    policy today, but weighted and adversarial-priority schedules slot
    in here (pick the next live session differently) without touching
    the per-session stepping. *)

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
    two sessions of a batch makes their streams interleaving-dependent
    and forfeits the determinism guarantee.
    [?corrupt_sender]/[?corrupt_receiver] root the run at corrupted
    local states (the {!Global.initial} overrides) — the step-0
    injection seam stabilisation sweeps use. *)

type stats = {
  sessions : int;  (** sessions admitted *)
  steps : int;  (** total {!Sim.apply} steps across all sessions *)
  ticks : int;  (** queue pops (scheduling quanta) *)
  peak_live : int;  (** maximum queue depth *)
  completed : int;
  quiescent : int;
  budget : int;
  strategy_end : int;  (** stop-reason histogram; the four sum to [sessions] *)
}
(** Batch telemetry, exact and deterministic (no clocks): what a
    long-lived service accumulates across batches. *)

val stats_zero : stats

val stats_merge : stats -> stats -> stats
(** Componentwise sums; [peak_live] is the max (shards run
    concurrently). *)

val default_timeslice : int
(** 128 steps per tick: long enough that queue rotation is noise next
    to the simulation work, short enough that a thousand-session batch
    rotates every few hundred microseconds. *)

val run_stats : ?timeslice:int -> session list -> result list * stats
(** Admit the sessions, drive the queue until empty, and return the
    results in admission order plus the batch telemetry.
    @raise Invalid_argument if [timeslice < 1]. *)

val run : ?timeslice:int -> session list -> result list
(** [run ss = fst (run_stats ss)]. *)

val pp_stop : Format.formatter -> stop_reason -> unit
