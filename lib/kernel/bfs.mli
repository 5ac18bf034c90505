(** The dense-id search table of the single-run BFS engines
    ({!Core.Stab.search}, {!Core.Attack.search_single} and the forward
    pass of {!Core.Spec.recoverability}); each keeps its own frontier
    of bare ids and its own violation rule.

    Fingerprints ({!Global.emit}, or {!Global.emit_run_key} under
    [~run_key:true]) intern to dense ids in first-seen order, and an id
    is admitted exactly when it is below {!length}.  Per id the table
    keeps the parent, the move and the depth in flat arrays; it holds
    the {!Global.t} only from admission until {!take}. *)

type t

val create : ?run_key:bool -> max_states:int -> unit -> t
(** {!admit} refuses once [max_states] states, roots included, are in. *)

val intern : t -> Global.t -> int
(** The id of the state's fingerprint; a new one is the next id. *)

val mem : t -> int -> bool
(** Whether the id is admitted. *)

val root : t -> int -> Global.t -> unit
(** Admit a search root at depth 0, whatever the budget.
    @raise Invalid_argument unless the id is the next to admit. *)

val admit : t -> int -> Global.t -> parent:int -> move:Move.t -> bool
(** Admit a state reached from [parent] by [move], one level deeper;
    [false] if the budget is spent.
    @raise Invalid_argument unless the id is the next to admit. *)

val take : t -> int -> Global.t
(** The held state, releasing its slot: called once, to expand it.
    @raise Invalid_argument if already taken. *)

val depth : t -> int -> int

val path : t -> int -> int * Move.t list
(** The id's root and the moves from it to the id. *)

val length : t -> int

val move_filter :
  allow_drops:bool ->
  max_sends_per_sender:int ->
  max_sends_per_receiver:int ->
  Global.t ->
  Move.t ->
  bool
(** The engines' move filter: wakes under the side's send cap, drops
    only under [allow_drops], deliveries always, injected moves never. *)
