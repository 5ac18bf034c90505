(** Exhaustive exploration of the run space.

    For small instances the entire truncated system — every adversary
    choice at every step, up to a depth bound — can be enumerated.
    [reachable] computes the reachable global-state graph with
    memoisation (channel states saturate on reorder+dup channels, so
    this converges quickly); [iter_runs] enumerates complete move
    sequences, which the knowledge layer turns into an *exact* point
    universe for the truncated system. *)

type stats = {
  states : int;  (** distinct reachable states (by {!Global.encode}) *)
  transitions : int;
  safety_violations : int;  (** reachable states violating Safety *)
  complete_states : int;  (** reachable states with [Y = X] *)
  truncated : bool;  (** the [max_states] budget refused a new state *)
}

val reachable :
  Protocol.t ->
  input:int array ->
  depth:int ->
  ?move_filter:(Global.t -> Move.t -> bool) ->
  ?max_states:int ->
  ?starts:Global.t list ->
  unit ->
  stats
(** BFS over distinct states to the given depth, run by
    {!Bfs.run} on a table keyed by {!Global.emit}.  [max_states] is a
    resource guard: once that many states are in, a new state is
    refused and the partial statistics come back with
    [truncated = true].  Only a new state is ever refused, so a closed
    space of exactly [max_states] states is not truncated; nor is one
    cut by [depth] ([truncated] is about the budget only).  [starts]
    replaces the designated initial state with an explicit list of
    roots, all at depth 0 — the corrupted-start sweep measures the
    union space of a whole perturb enumeration in one BFS (duplicate
    roots dedup). *)

val iter_runs :
  Protocol.t ->
  input:int array ->
  depth:int ->
  ?move_filter:(Global.t -> Move.t -> bool) ->
  ?max_runs:int ->
  (Trace.t -> unit) ->
  unit
(** DFS enumerating every move sequence of length exactly [depth]
    (runs that complete and quiesce earlier are emitted at their
    natural length).  [move_filter] prunes adversary choices — e.g.
    forbidding drops recovers the no-deletion subsystem.  Stops after
    [max_runs] traces when given (a safety valve: the run count is
    exponential in [depth]). *)

val no_drops : Global.t -> Move.t -> bool
(** The filter excluding deletion moves. *)
