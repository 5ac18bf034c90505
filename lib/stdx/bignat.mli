(** Arbitrary-precision natural numbers.

    The bound [α(m) = m!·Σ 1/k!] of Wang & Zuck grows like [e·m!] and
    overflows a 63-bit integer at [m = 20].  The repository avoids
    external dependencies (no zarith), so this module provides the small
    slice of bignum arithmetic the combinatorics need: addition,
    multiplication and division by machine integers, comparison, and
    decimal printing.  Values are immutable. *)

type t

val zero : t
val one : t

val of_int : int -> t
(** [of_int n] converts a non-negative machine integer.
    @raise Invalid_argument if [n < 0]. *)

val to_int : t -> int option
(** [to_int t] is [Some n] when [t] fits a non-negative OCaml [int],
    [None] otherwise. *)

val add : t -> t -> t
val mul : t -> t -> t

val mul_int : t -> int -> t
(** [mul_int t k] multiplies by a non-negative machine integer. *)

val divmod_int : t -> int -> t * int
(** [divmod_int t k] is the quotient and remainder of division by a
    positive machine integer. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val to_string : t -> string
(** Decimal rendering, e.g. [to_string (factorial 25)]. *)

val of_string : string -> t option
(** Inverse of {!to_string}: parse a non-empty all-digit decimal
    string.  [None] on anything else.  Leading zeros are accepted and
    normalised away. *)

val factorial : int -> t
(** [factorial n] is [n!] for [n >= 0]. *)
