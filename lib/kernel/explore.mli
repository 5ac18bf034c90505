(** Exhaustive enumeration of the run space.

    For small instances the entire truncated system — every adversary
    choice at every step, up to a depth bound — can be enumerated as
    complete move sequences, which the knowledge layer turns into an
    *exact* point universe for the truncated system. *)

val iter_runs :
  Protocol.t -> input:int array -> depth:int -> ?max_runs:int -> (Trace.t -> unit) -> unit
(** DFS enumerating every move sequence {!Sim.enabled} offers, of
    length exactly [depth] (runs that complete and quiesce earlier are
    emitted at their natural length).  Stops after [max_runs] traces
    when given (a safety valve: the run count is exponential in
    [depth]). *)
