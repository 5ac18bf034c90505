(** The one BFS loop of the search engines: {!Core.Stab.search},
    {!Core.Attack.search_single}, {!Core.Attack.search_pair}, the
    forward pass of {!Core.Spec.recoverability} and {!Explore.reachable}
    all run {!run} on a table of their own (the joint search reuses
    one per domain, {!reset} between searches).  Each engine supplies
    only its roots, key emitter, successor rule, stop rule and what it
    records.

    The table is generic over the value it holds per state (['a]: a
    {!Global.t} for the single-run engines, an int packing two store
    ids for the joint search) and over its move type (['m]; the joint
    search's are int codes).  A caller-supplied emitter writes a
    value's key into a codec ({!Global.emit},
    {!Global.emit_run_key}, or the joint search's pair of fingerprint
    ids); keys intern to dense ids in first-seen order, and an id is
    admitted exactly when it is below {!length}, so ids are dense in
    admission order.  Per id the table keeps the parent, the move and
    the depth in flat arrays; it holds the value only from admission
    until the id is expanded.

    The contract of {!run}, on a frontier of bare ids (FIFO, so ids
    are expanded in admission order):
    - {b roots} are admitted at depth 0 in list order, whatever the
      budget; a repeated root key is skipped;
    - every admitted state, roots included, is pushed, then passed to
      [admitted id v]; [true] stops the search at that id;
    - at each pop, a spent [deadline] clears the frontier and ends the
      search not closed; a state at [depth] is not expanded and the
      search is not closed; otherwise [step id v m] runs for each [m]
      of [moves id v], in order, and returns the successor, or [None]
      for a move that is filtered or rejected;
    - each successor is interned, then admitted one level deeper or,
      when [max_states] states are in, refused, and a refusal means
      not closed; only a new key can be refused.  Then
      [on_edge id m id'] sees the successor, seen before or new;
    - after a stop no further [step] runs, as no further state is
      expanded. *)

type ('a, 'm) t

val create : emit:(Stdx.Codec.t -> 'a -> unit) -> max_states:int -> unit -> ('a, 'm) t
(** {!run} refuses a new state once [max_states] states, roots
    included, are in. *)

val reset : ('a, 'm) t -> emit:(Stdx.Codec.t -> 'a -> unit) -> max_states:int -> unit
(** Empty the table for another search, as if {!create}d with this
    [emit] and [max_states]: the next admitted state is id 0, and ids,
    depths, paths and refusals come out as from a fresh table.  The
    arrays and the intern table keep their capacity, so a run of
    searches on one table grows it once; held values are dropped.  The
    joint search of {!Core.Attack} reuses one table per domain across a
    sweep this way. *)

type outcome =
  | Found of int  (** [admitted] returned [true] for this id *)
  | Exhausted of { closed : bool }
      (** the frontier ran dry; [closed = false] when a depth cut, a
          budget refusal or the deadline hid part of the space *)

val run :
  ('a, 'm) t ->
  Stdx.Frontier.t ->
  roots:'a list ->
  depth:int ->
  ?deadline:(unit -> bool) ->
  ?admitted:(int -> 'a -> bool) ->
  ?on_edge:(int -> 'm -> int -> unit) ->
  moves:(int -> 'a -> 'm list) ->
  step:(int -> 'a -> 'm -> 'a option) ->
  unit ->
  outcome
(** The search loop, as the contract above says.  [deadline] defaults
    to never, [admitted] to never stopping, [on_edge] to nothing. *)

val intern : ('a, 'm) t -> 'a -> int
(** The id of the value's key; a new key is the next id. *)

val mem : ('a, 'm) t -> int -> bool
(** Whether the id is admitted. *)

val depth : ('a, 'm) t -> int -> int

val path : ('a, 'm) t -> int -> int * 'm list
(** The id's root and the moves from it to the id. *)

val length : ('a, 'm) t -> int

val move_filter :
  allow_drops:bool ->
  max_sends_per_sender:int ->
  max_sends_per_receiver:int ->
  Global.t ->
  Move.t ->
  bool
(** The engines' move filter: wakes under the side's send cap, drops
    only under [allow_drops], deliveries always, injected moves never. *)
