(** Complete local histories (the complete-history interpretation, §2.3).

    The kernel — not the protocol — records everything a process has
    observed and done.  Two points of two runs are indistinguishable to
    a process, [(r,t) ~_p (r',t')], exactly when the process's recorded
    histories are equal.  Recording at the kernel level guarantees the
    complete-history interpretation regardless of how forgetful a
    protocol's own state is, which is what the paper's impossibility
    arguments assume ("we are losing no generality in doing so").  The
    trace builder ({!Trace}) does the recording, from each step's move
    and the stepped process's actions; {!Trace.r_view} and
    {!Trace.s_view} hand out the histories as values of this type. *)

type entry =
  | Woke  (** the scheduler gave the process a local step *)
  | Got of int  (** a message was delivered to the process *)
  | Sent of int  (** the process sent a message *)
  | Wrote of int  (** the process wrote a data item (receiver only) *)

type t
(** A history; grows by appending entries.  Persistent. *)

val empty : t

val length : t -> int

val add : t -> entry -> t

val add_event : t -> Event.t -> t
(** Records [Wake] as [Woke] and [Deliver m] as [Got m]. *)

val add_action : t -> Action.t -> t
(** Records [Send m] as [Sent m] and [Write d] as [Wrote d]. *)

val to_list : t -> entry list
(** Oldest first. *)

val encode : t -> string
(** Canonical encoding; equal strings iff equal histories.  It is
    {!encode_entry} over the entries, oldest first, so a history's
    encoding is a prefix of any extension's. *)

val encode_entry : Buffer.t -> entry -> unit
(** Append one entry's encoding. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
