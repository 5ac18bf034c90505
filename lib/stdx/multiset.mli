(** Persistent multisets over machine integers.

    Deletion channels carry a multiset of in-flight message copies
    (the [dlvrble] vector of Wang & Zuck §2.2): sending adds a copy,
    delivery removes one, deletion removes one.  The structure is
    persistent because the exhaustive run-space explorer and the
    product attack search branch over channel states and need cheap
    sharing. *)

type t

val empty : t

val is_empty : t -> bool

val count : t -> int -> int
(** [count t x] is the multiplicity of [x] (0 when absent). *)

val add : ?times:int -> t -> int -> t
(** [add ~times t x] inserts [times] copies of [x] (default 1).
    @raise Invalid_argument if [times < 0]. *)

val remove : t -> int -> t option
(** [remove t x] removes one copy of [x]; [None] when [count t x = 0]. *)

val support : t -> int list
(** Distinct elements with positive multiplicity, ascending. *)

val cardinal : t -> int
(** Total number of copies. *)

val distinct : t -> int
(** Number of distinct elements. *)

val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold f t init] folds [f elt multiplicity] over the support in
    ascending element order. *)

val union : t -> t -> t
(** Multiplicities add. *)

val leq : t -> t -> bool
(** [leq a b] is pointwise [count a x <= count b x] — the sub-multiset
    order used to audit that deletion channels never create messages. *)

val of_list : int list -> t
val to_list : t -> int list
(** Ascending, with repetitions. *)

val encode : t -> string
(** Canonical compact encoding, used as a hash-consing key by the
    explorer's memo table. *)

val emit : Codec.t -> t -> unit
(** Append the canonical binary form (distinct-count header, then
    ascending [(element, multiplicity)] varint pairs) — the
    {!Channel.Chan} fingerprint path. *)

val pp : Format.formatter -> t -> unit
