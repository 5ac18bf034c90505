(** Events a process can observe.

    A process takes a step either because the scheduler wakes it
    ([Wake] — a pure local step, its clock ticks) or because the
    channel delivers a message to it ([Deliver]).  Following §2.2 we
    assume a message cannot be delivered in the step it is sent and at
    most one message is delivered to a process per step. *)

type t =
  | Wake
  | Deliver of int  (** message symbol from the peer's alphabet *)
