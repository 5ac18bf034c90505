(** Deterministic pseudo-random number generation.

    All randomness in the repository flows through this module so that
    every simulation, adversary schedule, and experiment is reproducible
    bit-for-bit from a seed.  The generator is SplitMix64 (Steele,
    Lea & Flood, OOPSLA 2014): tiny state, excellent statistical
    quality for simulation purposes, and cheap splitting. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from [seed].  Equal seeds give
    equal streams. *)

val copy : t -> t
(** [copy t] is an independent generator that will replay exactly the
    stream [t] would have produced from this point. *)

val split : t -> int -> t
(** [split t i] derives the [i]-th child generator from [t]'s current
    state {e without advancing [t]}: the result depends only on the
    parent state and the index, so child [i] is the same stream
    whether the children are derived in order, out of order, or on
    different domains — the property that makes the soak runner's
    per-plan streams bit-identical at every job count.  Distinct
    indices give statistically independent streams. *)

val bits64 : t -> int64
(** [bits64 t] is the next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)].  Requires [n > 0]. *)

val bool : t -> bool
(** [bool t] is a fair coin flip. *)

val float : t -> float
(** [float t] is uniform in [\[0, 1)]. *)

val pick : t -> 'a list -> 'a
(** [pick t xs] is a uniformly random element of [xs].
    Requires [xs] non-empty. *)

val shuffle : t -> 'a array -> unit
(** [shuffle t a] permutes [a] in place, uniformly (Fisher–Yates). *)
