(** Mutable FIFO over a growable circular array.

    The BFS frontiers used to live in [Stdlib.Queue], which allocates a
    three-word cons cell per enqueue (plus the tuple when the payload
    is a pair).  A ring buffer stores the elements flat: pushes write
    into a doubling array, pops read from the head, and steady-state
    traffic allocates nothing.  Not thread-safe — each search owns its
    frontier. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Enqueue at the back; amortised O(1). *)

val pop : 'a t -> 'a
(** Dequeue from the front.
    @raise Invalid_argument when empty. *)
