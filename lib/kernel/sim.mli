(** The transition relation of the global system.

    [enabled] lists the moves available to the environment in a global
    state; [transition] performs one, stepping the relevant process and
    routing its actions through the channels and onto the output tape.
    It builds the successor state once and hands back the stepped
    process's actions, from which the trace builder records the
    complete histories ({!Trace.step}); [apply] is the same step for
    the engines that want only the state.

    Invariants enforced here (violations raise [Model_violation]):
    senders never write; all message symbols stay within the declared
    alphabets; deliveries only happen for deliverable messages.  These
    are exactly the modelling assumptions under which the paper's
    bounds apply. *)

exception Model_violation of string

val enabled : Protocol.t -> Global.t -> Move.t list
(** All moves the environment may take, deterministic order: wakes
    first, then deliveries (ascending message), then drops.  Wake
    moves are always enabled (Property 1(b)i: there is always an
    extension in which no message is delivered).  Restart moves are
    {e not} listed: they model injected faults, outside the
    environment protocol the bounds quantify over, and are only played
    by the fault layer via {!apply}. *)

val transition : Protocol.t -> Global.t -> Move.t -> Global.t * Action.t list
(** Perform one move: the successor state (its [time] one higher) and
    the actions of the process the move stepped, in emission order —
    [[]] for drops, restarts and corruptions, which step no process.
    @raise Model_violation on a protocol or scheduling fault. *)

val apply : Protocol.t -> Global.t -> Move.t -> Global.t
(** [apply p g m] is the state of [transition p g m].
    @raise Model_violation on a protocol or scheduling fault. *)

val wake_only_complete : Protocol.t -> Global.t -> Move.t list -> bool
(** [wake_only_complete p g enabled], where [enabled] is
    [enabled p g]: true when only wake moves are enabled and neither
    process sends or writes on wake — the system has reached a
    quiescent configuration from which no adversary choice changes
    anything.  Used by run drivers to stop early; they pass the list
    they already hold. *)
