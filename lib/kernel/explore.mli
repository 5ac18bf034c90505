(** Exhaustive enumeration of the run space.

    For small instances the entire truncated system — every adversary
    choice at every step, up to a depth bound — can be enumerated as
    complete move sequences, which the knowledge layer turns into an
    *exact* point universe for the truncated system. *)

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
