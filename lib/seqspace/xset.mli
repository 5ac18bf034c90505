(** Allowable sequence sets [𝒳].

    An [𝒳]-STP instance is parameterised by the set of sequences the
    sender may be asked to transmit (§2.1).  The experiments use three
    families: explicit finite sets, the full space of sequences up to a
    length bound (countable [𝒳] restricted to a finite horizon), and
    the repetition-free family that meets the [α(m)] bound. *)

type t =
  | Explicit of int list list
      (** An explicit, duplicate-free list of sequences. *)
  | All_upto of { domain : int; max_len : int }
      (** Every sequence over [\[0, domain)] of length [≤ max_len]. *)
  | Norep_full of { domain : int }
      (** Every repetition-free sequence over [\[0, domain)] —
          cardinality [α(domain)]. *)

val domain : t -> int
(** Size of the data domain [D] the sequences range over.  For
    [Explicit] it is one more than the largest symbol mentioned
    (at least 1). *)

val cardinality : t -> Stdx.Bignat.t
(** Exact number of sequences in the set. *)

val cardinality_int : t -> int
(** @raise Failure on machine-int overflow. *)

val to_list : t -> int list list
(** All member sequences, in a deterministic order.  Intended for the
    finite instantiations used by experiments. *)

val mem : t -> int list -> bool

val beta : t -> int
(** [beta t] is the minimal [i] such that every member is uniquely
    identified by its length-[i] prefix — the [β] of §4.  For sets
    where some member is a proper prefix of another, identification
    means no *other* member shares the prefix of that length; following
    the paper we take the minimal [i] with all length-[i] truncations
    distinct among sequences of length [≥ i] and prefix-closed
    ambiguity resolved by length.  Concretely: the smallest [i] such
    that for all distinct members [x, y], [truncate i x ≠ truncate i y]
    or one of them has length [< i] and is a prefix of the other. *)

val is_prefix : int list -> int list -> bool
(** [is_prefix p x]: [p] is a (not necessarily proper) prefix of [x]. *)

val lcp : int list -> int list -> int list
(** Longest common prefix. *)

val distinct_non_prefix_pairs : t -> (int list * int list) list
(** All unordered pairs of members where neither is a prefix of the
    other — the pairs the impossibility proofs drive to a safety
    violation. *)

val sequence_text : int list -> string
(** Renders [\[1;0;2\]] as ["<1 0 2>"]. *)

val pp_sequence : Format.formatter -> int list -> unit
(** Prints {!sequence_text}. *)
