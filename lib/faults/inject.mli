(** Compiling a fault plan into an environment strategy.

    [strategy ~plan ~base] wraps a base schedule: outside every fault
    window it defers to [base] untouched (the wrapper is zero-cost for
    the empty plan — the E1–E12 byte-identity pin relies on this), and
    inside a window it overrides the choice with the scripted fault.
    The wrapper is stateless, like every {!Kernel.Strategy}: the only
    clock is [Global.time], so one strategy value drives any number of
    runs.

    Legality: drop and duplicate bursts only ever pick moves the
    simulator lists in [Sim.enabled], and crash-restarts map to the
    restart moves [Sim.apply] accepts unconditionally — an injected
    run can never raise [Model_violation] (property-tested).  A fault
    whose window arrives when no matching move is enabled (e.g. a drop
    burst on an empty channel) falls through to [base]: the plan
    [validate] gate rejects statically-impossible faults, while
    dynamically-vacuous ones are simply inert. *)

val strategy : plan:Plan.t -> base:Kernel.Strategy.t -> Kernel.Strategy.t
(** The name is ["<base>+<plan>"]. *)

val verdict :
  plan:Plan.t -> within:int -> Kernel.Runner.result -> Core.Verdict.t * int option
(** The run's verdict with recovery assessed [within] steps of the
    plan's last fault ({!Core.Verdict.assess_recovery}), and its
    time-to-recover ({!Core.Verdict.time_to_recover}). *)

val active : Plan.t -> time:int -> dropped:(Plan.target -> int) -> Plan.event option
(** The first event (in plan order) live at [time] — the dispatch rule
    [strategy] uses, exposed for tests.  [dropped] reports the
    channel's cumulative drop count towards that target; a drop burst
    is live while its {!Plan.window} is open {e and} the drops beyond
    earlier same-target bursts are still short of its [count], so a
    burst that finds the channel empty waits (up to the window) for
    the next in-flight copy instead of silently missing. *)
