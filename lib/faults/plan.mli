(** Declarative fault plans.

    A plan is a serializable script of localized fault bursts: at
    global time [at] (for a window of one or more steps), drop copies,
    force duplicate deliveries, reorder aggressively (oldest delivered
    last), black out all deliveries, or crash-restart a process.  The
    soak runner compiles a plan into a {!Kernel.Strategy} wrapper
    ({!Inject.strategy}) and the shrinker searches the space of
    smaller plans ({!Shrink.run}).

    Every plan is checked against the channel's capability flags
    ({!Channel.Chan.deletes} / [duplicates] / [reorders]) before it
    runs: a drop burst on a non-deleting channel is a {e static} error
    ({!validate}), never a silently ignored event — the
    fault/capability qcheck suite pins this. *)

type target = To_receiver  (** faults on the S→R channel *) | To_sender

type proc = Sender | Receiver

type event =
  | Drop_burst of { at : int; target : target; count : int }
      (** delete up to [count] in-flight copies, one per step from
          [at]; requires a deleting channel *)
  | Dup_burst of { at : int; target : target; count : int }
      (** force [count] extra deliveries of already-deliverable
          copies; requires a duplicating channel *)
  | Reorder_storm of { at : int; len : int }
      (** for [len] steps deliver newest-first, forcing the oldest
          copies to arrive last; requires a reordering channel *)
  | Blackout of { at : int; len : int }
      (** withhold every delivery for [len] steps (always legal: the
          adversary may starve deliveries on any channel) *)
  | Crash_restart of { at : int; who : proc }
      (** reset the process to its initial state at time [at]; the
          channels keep their in-flight contents (always legal) *)
  | Corrupt_state of { at : int; who : proc; index : int }
      (** replace the process's local state with entry [index] of the
          protocol's declared corrupted-start enumeration
          ({!Kernel.Protocol.perturb}) at time [at]; legal only for
          protocols with that seam — {!validate} needs the enumeration
          sizes via [?corrupt_space] *)

type t = { name : string; events : event list }

val drop_grace : int
(** How many steps past its nominal span a drop burst stays armed
    waiting for an in-flight copy to appear (8): the scripted moment
    may find the channel empty, and a burst that never fires would
    make the schedule silently fault-free. *)

val window : event -> int * int
(** [window e] is the inclusive time span [(first, last)] the event is
    active in; for {!Drop_burst} the span includes {!drop_grace}.
    [last] saturates at [max_int], so a huge count or length keeps the
    event active to the end of any run. *)

val last_fault_time : t -> int
(** The last step at which any event of the plan is active; [0] for
    the empty plan.  Recovery verdicts count from here. *)

val validate :
  channel:Channel.Chan.kind -> ?corrupt_space:int * int -> t -> (unit, string) result
(** Static legality: every event's shape is well-formed ([at >= 0],
    positive spans) and within the channel's capabilities.
    [corrupt_space] is the protocol's [(sender, receiver)] enumeration
    sizes ({!Kernel.Protocol.corrupt_space}); without it (default) any
    {!Corrupt_state} event is rejected — corruption is a protocol
    capability exactly as drops are a channel one.  The error names
    the offending event. *)

val random :
  channel:Channel.Chan.kind ->
  rng:Stdx.Rng.t ->
  ?max_events:int ->
  ?horizon:int ->
  ?corrupt_space:int * int ->
  ?name:string ->
  unit ->
  t
(** A seeded random plan drawing only events legal on [channel]
    (always at least {!Blackout} and {!Crash_restart}), with start
    times below [horizon] (default 40) and at most [max_events]
    (default 3) events.  Passing [corrupt_space] adds
    {!Corrupt_state} to the pool (and to the later draws — the
    default draw stream is unchanged, keeping seeded batteries
    stable).  [validate ~channel ?corrupt_space (random ...)] is
    [Ok ()] by construction — property-tested. *)

val pp : Format.formatter -> t -> unit
(** Compact one-line rendering, e.g.
    ["1-fault[drop(->R)@6x1]"]. *)

val to_string : t -> string

val to_json : t -> Stdx.Json.t
val of_json : Stdx.Json.t -> (t, string) result
(** Round-trip: [of_json (to_json p) = Ok p]. *)
