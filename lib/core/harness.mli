(** Batch verification harness: a protocol against an allowable set.

    Runs every sequence of [𝒳] under a battery of schedules and
    aggregates verdicts — the positive side of the experiments
    ("the §3 protocol really does transmit all [α(m)] repetition-free
    sequences", E1) and the workload driver for the throughput sweep
    (E7). *)

type spec = {
  strategies : Kernel.Strategy.t list;
  seeds : int list;  (** each strategy runs once per seed *)
  max_steps : int;
}

val default_spec : ?max_steps:int -> ?n_seeds:int -> unit -> spec
(** Fair-random plus round-robin plus newest-first, seeds [1..n_seeds]
    (default 5), [max_steps] default 20_000. *)

type failure = {
  input : int list;
  strategy_name : string;
  seed : int;
  verdict : Verdict.t;
}

type report = {
  protocol_name : string;
  runs : int;
  safe_runs : int;
  complete_runs : int;
  audit_failures : int;
      (** runs whose final channel counters failed the Property-1
          model audit ({!Kernel.Audit}) — always 0 unless the
          simulator itself is broken, which is exactly why it is
          checked on every run *)
  failures : failure list;
      (** runs that were unsafe or incomplete, in chronological order
          (the order the harness executed them); possibly truncated to
          the [max_failures] earliest *)
  failures_total : int;  (** failing runs encountered, never truncated *)
  steps : Stdx.Stats.summary option;  (** over completed runs *)
  messages : Stdx.Stats.summary option;
  messages_per_item : Stdx.Stats.summary option;
}

val verify :
  Kernel.Protocol.t -> xs:int list list -> ?max_failures:int -> ?jobs:int -> spec -> report
(** Every input × strategy × seed, executed as one batch of sessions
    ([Par.map ~jobs Kernel.Sched.run]); results are folded in the
    historical chronological order, so the report is bit-identical at
    every [jobs] count.  [jobs] defaults to 1 — {e not} [STP_JOBS] — because
    {!Census} runs verify from inside a [Par.map] task and batches do
    not nest; pass [~jobs] explicitly (the CLI's [--jobs]) to fan out.
    [max_failures] caps how many failure records are retained (the
    earliest ones); the [failures_total] count and the [clean] verdict
    are unaffected, and {!to_report} notes the truncation. *)

val clean : report -> bool
(** No failures and no audit violations at all. *)

val pp_report : Format.formatter -> report -> unit

val to_report : report -> Stdx.Report.t
(** The report as typed IR (id ["verify"]): a metrics block, the
    failure table when non-empty, and a truncation note when
    [max_failures] dropped records. *)
