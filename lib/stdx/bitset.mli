(** Growable bit-packed sets of small non-negative integers.

    The state-space engines hand out dense ids ({!Intern}), and several
    passes then need a plain membership set over those ids — the SCC
    stack flags of the starvation analysis, the backward "can still
    complete" / "cap-tainted" markings of the recoverability pass.  A
    hash table spends ~3 words per member on boxing and bucket
    plumbing; a bitset spends one bit per id in a buffer the GC never
    scans.  Growth is by doubling, so membership far beyond the current
    capacity is cheap to ask ([mem] past the end is just [false]). *)

type t

val create : ?size:int -> unit -> t
(** Fresh empty set with initial capacity for ids in [\[0, size)]
    (default 1024).  The set grows transparently on [add]. *)

val mem : t -> int -> bool
(** Membership.  Never grows the set.
    @raise Invalid_argument on a negative id. *)

val add : t -> int -> bool
(** [add t i] inserts [i] and returns whether it was fresh — the
    combined test-and-set the visited-set loops want.
    @raise Invalid_argument on a negative id. *)

val cardinal : t -> int
(** Number of members. *)

val clear : t -> unit
(** Empty the set, keeping the capacity. *)
