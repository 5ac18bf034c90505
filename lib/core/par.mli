(** Multicore fan-out for the embarrassingly parallel outer loops.

    The sweeps this repo runs — {!Attack.search} over input pairs,
    {!Census.run} over sampled protocols, and every batch of
    {!Kernel.Sched} sessions ([Par.map ?jobs Kernel.Sched.run]) — are
    lists of independent pure tasks.  [Par.map] distributes such a
    list over OCaml 5 domains: a shared atomic cursor hands out
    indices, each worker writes results into its own slots, and the
    caller gets the results back in input order, so every job count
    produces the identical value (the jobs=1 vs jobs=4
    census-equality test pins this down).

    Tasks must not share mutable state: each attack search owns its
    tables, each simulated run owns its {!Stdx.Rng.t}, and the
    {!Kernel.Strategy} values are stateless by contract.

    Workers are a persistent pool: domains are spawned on first use
    (up to the largest job count ever requested) and parked between
    batches, so a [map] pays the ~1ms [Domain.spawn] cost once per
    process rather than once per call.  Tasks must not call [map]
    themselves — batches are not nestable.

    Job count resolution: an explicit [~jobs] wins; otherwise the
    [STP_JOBS] environment variable; otherwise 1.  At [jobs <= 1] (or
    on single-element lists) no domain is involved — the sequential
    fallback is a plain [List.map], so the default behaviour is
    bit-identical to the pre-parallel code. *)

val default_jobs : unit -> int
(** [STP_JOBS] parsed as a positive integer, else 1. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [List.map f xs] computed by up to [jobs]
    domains (including the calling one).  Order-preserving.  If any
    task raises, the remaining tasks are abandoned and the first
    observed exception is re-raised in the caller after all domains
    have joined. *)
