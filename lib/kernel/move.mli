(** Scheduler/environment moves.

    Each transition of the global system is one move, chosen by the
    environment (the adversary): wake a process, deliver a deliverable
    message to a process, or — on deleting channels — drop an in-flight
    copy.  This is the paper's implicit environment protocol made
    explicit. *)

type t =
  | Wake_sender
  | Wake_receiver
  | Deliver_to_receiver of int  (** deliver a copy of this S-message *)
  | Deliver_to_sender of int  (** deliver a copy of this R-message *)
  | Drop_to_receiver of int  (** delete an in-flight S-message copy *)
  | Drop_to_sender of int
  | Restart_sender
      (** crash-restart: reset the sender to its initial state; the
          channels keep their in-flight contents.  Never offered by
          {!Sim.enabled} — only a fault plan ({!Faults.Plan}) injects
          it, so ordinary searches and schedules are unaffected. *)
  | Restart_receiver
  | Corrupt_sender of int
      (** state corruption: replace the sender's local state with entry
          [i] of the protocol's declared corrupted-start enumeration
          ({!Protocol.t.perturb}); channels and histories keep their
          in-flight contents.  Like the restarts, never offered by
          {!Sim.enabled} — only a fault plan or a stabilisation sweep
          injects it.  [Sim.apply] rejects the move on protocols that
          declare no corruption seam, or an index outside the
          enumeration. *)
  | Corrupt_receiver of int

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
val to_string : t -> string
