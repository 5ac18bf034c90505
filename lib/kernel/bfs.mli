(** The dense-id search table of the BFS engines: {!Core.Stab.search},
    {!Core.Attack.search_single}, {!Core.Attack.search_pair} and the
    forward pass of {!Core.Spec.recoverability}; each keeps its own
    frontier of bare ids and its own violation rule.

    The table is generic over the value it holds per state (['a]: a
    {!Global.t} for the single-run engines, a pair of store ids for the
    joint search) and over its move type (['m]).  A caller-supplied
    emitter writes a value's key into a codec ({!Global.emit},
    {!Global.emit_run_key}, or the joint search's pair of fingerprint
    ids); keys intern to dense ids in first-seen order, and an id is
    admitted exactly when it is below {!length}.  Per id the table
    keeps the parent, the move and the depth in flat arrays; it holds
    the value only from admission until {!take}. *)

type ('a, 'm) t

val create : emit:(Stdx.Codec.t -> 'a -> unit) -> max_states:int -> unit -> ('a, 'm) t
(** {!admit} refuses once [max_states] states, roots included, are in. *)

val intern : ('a, 'm) t -> 'a -> int
(** The id of the value's key; a new key is the next id. *)

val mem : ('a, 'm) t -> int -> bool
(** Whether the id is admitted. *)

val root : ('a, 'm) t -> int -> 'a -> unit
(** Admit a search root at depth 0, whatever the budget.
    @raise Invalid_argument unless the id is the next to admit. *)

val admit : ('a, 'm) t -> int -> 'a -> parent:int -> move:'m -> bool
(** Admit a state reached from [parent] by [move], one level deeper;
    [false] if the budget is spent.
    @raise Invalid_argument unless the id is the next to admit. *)

val take : ('a, 'm) t -> int -> 'a
(** The held value, releasing its slot: called once, to expand it.
    @raise Invalid_argument if already taken. *)

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
