(** Unidirectional unreliable channels (§2.2, Property 1).

    A channel carries message symbols (small non-negative integers
    drawn from the sending process's finite alphabet).  Four semantics
    are provided:

    - {b Perfect}: FIFO, no loss — the trivial baseline of §1.
    - {b Fifo_lossy}: FIFO order, the adversary may drop the head —
      the classic data-link setting where the Alternating Bit protocol
      is correct.
    - {b Reorder_dup}: the §3 channel.  Delivery never consumes
      anything: once a message has been sent, the channel can deliver
      a copy of it at every later step ([dlvrble] is a 0/1 vector).
      Nothing is ever lost (Property 1c).
    - {b Reorder_del}: the §4 channel.  The channel holds a multiset
      of in-flight copies ([dlvrble] counts sends minus deliveries);
      delivery consumes a copy and the adversary may delete copies.

    States are persistent so the exhaustive explorer and the product
    attack search can branch cheaply.  Cumulative send/deliver/drop
    counters support the fairness audits of Property 1b–c. *)

type kind =
  | Perfect
  | Fifo_lossy
  | Reorder_dup
  | Reorder_del
  | Bounded_reorder of { lag : int }
      (** Lag-bounded reordering with deletion: an in-flight copy may
          overtake at most [lag] of its predecessors (only the oldest
          [lag + 1] copies are deliverable or droppable at any moment).
          [lag = 0] coincides with {!Fifo_lossy}; [lag = ∞] would be
          {!Reorder_del}.  This interpolation is where the bounded-
          header protocols the theorems kill become correct again —
          experiment E10 locates the crossover. *)

val kind_name : kind -> string
(** Display name used in tables and pretty-printing, e.g.
    ["reorder+dup"], ["reorder<=2+del"]. *)

val to_string : kind -> string
(** Parse-canonical name: ["perfect"], ["fifo-lossy"], ["dup"],
    ["del"], ["lag:K"].  [of_string (to_string k) = Some k]. *)

val of_string : string -> kind option
(** Inverse of {!to_string}; also accepts the aliases ["fifo"],
    ["lossy"], ["reorder+dup"]/["reorder-dup"],
    ["reorder+del"]/["reorder-del"], and ["lag=K"]. *)

val reorders : kind -> bool
(** Whether the adversary controls delivery order. *)

val deletes : kind -> bool
(** Whether the adversary may drop copies. *)

val duplicates : kind -> bool
(** Whether delivery leaves the message deliverable again. *)

type t

val create : kind -> t

val kind : t -> kind

val send : t -> int -> t
(** [send t m] puts one copy of [m] in flight. *)

val deliverable : t -> int list
(** Distinct messages a delivery move may carry right now, ascending.
    For FIFO kinds this is the head (or nothing); for reordering kinds
    it is the support of the deliverable vector. *)

val can_deliver : t -> int -> bool

val deliver : t -> int -> t option
(** [deliver t m] performs a delivery of [m]; [None] exactly when [m]
    is not in {!deliverable}.  On [Reorder_dup] the deliverable vector
    is unchanged (duplication); on the others one copy is consumed. *)

val droppable : t -> int list
(** Messages a drop move may target ([Fifo_lossy]: the head;
    [Reorder_del]: any in-flight message; empty otherwise). *)

val drop : t -> int -> t option
(** [drop t m] deletes one in-flight copy of [m]; [None] exactly when
    [m] is not in {!droppable}: the kind does not delete, or no copy is
    in flight. *)

val dlvrble : t -> Stdx.Multiset.t
(** The paper's [dlvrble] vector: for [Reorder_dup] a 0/1 vector over
    ever-sent messages, for the others the in-flight multiset. *)

val sent_count : t -> int -> int
(** Cumulative copies of [m] sent. *)

val delivered_count : t -> int -> int

val dropped_count : t -> int -> int

val sent_total : t -> int
val delivered_total : t -> int
val dropped_total : t -> int

val observed : t -> int list
(** Every distinct message that was ever sent, delivered, or dropped
    on this channel, ascending — the support the audits quantify
    over. *)

val debt : t -> int
(** Fairness debt: deliveries still owed.  [Reorder_dup]: total sends
    minus total deliveries (Property 1c owes one delivery per send);
    others: copies currently in flight.  A finite execution is
    considered channel-fair when the adversary stopped with zero debt
    or the run completed. *)

val encode : t -> string
(** Canonical binary fingerprint of the transition-relevant body
    (cumulative counters excluded): {!emit} into a fresh codec.  Two
    states with equal encodings are observationally identical for
    every future behaviour. *)

val emit : Stdx.Codec.t -> t -> unit
(** Write the body fingerprint straight into a codec — the
    {!Kernel.Global.emit} component path.  The body is a tag byte, a
    count and the items, a prefix code, so it needs no length prefix
    inside a longer key.  Not memoised: a body is a handful of
    varints. *)

val emit_run_key : Stdx.Codec.t -> t -> unit
(** {!emit} followed by the three cumulative counter multisets — the
    channel component of {!Kernel.Global.emit_run_key}.  Equal keys
    mean the channels are interchangeable for every decision the
    engines make (deliverable/droppable sets, send-cap totals, debt),
    even when their construction histories differ. *)

val pp : Format.formatter -> t -> unit
