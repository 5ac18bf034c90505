(** Processes as pure step functions over hidden state.

    A process is a deterministic state machine: given an event it
    produces a new state and a batch of actions.  The state type is
    existentially hidden so the simulator can drive any protocol
    uniformly; an [encode] function exposes a canonical fingerprint of
    the state for the explorer's memo tables (protocol states must be
    pure marshalable data — no closures inside states). *)

type t

val make :
  ?encode:('s -> string) ->
  state:'s ->
  step:('s -> Event.t -> 's * Action.t list) ->
  unit ->
  t
(** [make ~state ~step ()] wraps a state machine.  The default
    [encode] marshals the state and drops the fixed
    [Marshal.header_size]-byte header, which the rest of the output
    determines; that is correct for any pure-data state type.  Two
    states then encode equally exactly when their marshalled forms are
    equal: for states built without shared sub-values, exactly when
    they are structurally equal. *)

val step : t -> Event.t -> t * Action.t list
(** Advance the machine by one event. *)

val encode : t -> string
(** Canonical fingerprint of the current state.  Memoised: each
    distinct process value is serialised at most once, however many
    global states share it. *)

val emit : Stdx.Codec.t -> t -> unit
(** Append the (memoised) fingerprint to a codec as a length-prefixed
    blob — the {!Global.emit} component path; allocation-free once the
    memo is warm. *)
