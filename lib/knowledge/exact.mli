(** Exhaustive (exact) point universes.

    {!Universe.of_traces} over sampled schedules under-approximates
    the system [ℛ], so knowledge computed from it is an
    over-approximation — fewer runs, fewer confusers.  This module
    builds the universe from {b every} run of the truncated system
    instead, via {!Kernel.Explore.iter_runs}: the resulting knowledge
    judgments and learning times are exact for the depth-[d]
    truncation (and sound lower bounds on [t_i] for the full system:
    adding longer runs can only add confusers at points beyond the
    horizon, never remove knowledge below it — knowledge at a point
    only quantifies over points with *equal* receiver views, whose
    length is bounded by the point's own time).

    The run count is exponential in the depth, so this is for the
    small instances where exactness matters: E6's ablation compares
    sampled against exact learning times, and the test suite uses
    exact universes to pin down knowledge in scripted scenarios. *)

val universe :
  Kernel.Protocol.t ->
  inputs:int list list ->
  depth:int ->
  ?max_runs_per_input:int ->
  unit ->
  Universe.t * bool
(** [universe p ~inputs ~depth ()] enumerates every schedule of length
    [depth] for every input ({!Kernel.Explore.iter_runs}) and pools
    all traces.  The boolean is [true] when no [max_runs_per_input]
    cap was hit — i.e. the universe really is exhaustive for the
    truncation. *)

val compare_with_sampled :
  Universe.t ->
  Universe.t ->
  run_exact:int ->
  run_sampled:int ->
  (int option * int option) list
(** [compare_with_sampled exact sampled ~run_exact ~run_sampled] pairs
    the learning times of a run as computed in the exact universe with
    those of a corresponding run in the sampled universe (same input
    expected; the caller aligns the indices).  Sampled times are never
    later than exact ones — the ablation E6 quantifies the gap. *)
