(** Actions a process can take in response to an event.

    The sender may [Send]; the receiver may [Send] (acknowledgements)
    and [Write] (append a data item to the output tape [Y]).  The
    simulator rejects [Write] from the sender. *)

type t =
  | Send of int  (** message symbol from this process's alphabet *)
  | Write of int  (** data item appended to the output tape *)
