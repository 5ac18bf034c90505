(** Persistent double-ended queues (Okasaki's two-list representation).

    FIFO channels (the perfect and FIFO-lossy baselines) hold their
    in-flight messages in a deque; persistence lets the explorer branch
    on channel states without copying. *)

type 'a t

val empty : 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

val push_back : 'a t -> 'a -> 'a t
(** Enqueue at the back (the sending end). *)

val push_front : 'a t -> 'a -> 'a t
(** Enqueue at the front (used to undo a pop during search). *)

val pop_front : 'a t -> ('a * 'a t) option
(** Dequeue from the front (the delivering end).  The pop that takes
    the last element of the front list reverses the back list into
    its place. *)

val peek_front : 'a t -> 'a option
(** O(1): the head of a non-empty deque is always at the front of the
    representation, so peeking never reverses anything. *)

val to_list : 'a t -> 'a list
(** Front to back. *)

val of_list : 'a list -> 'a t

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** Front-to-back fold. *)
