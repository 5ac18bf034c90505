(** Summary statistics for experiment measurements.

    The experiment drivers (E1–E7) aggregate per-run measurements —
    steps, messages, learning-time gaps — into the summaries printed in
    the reproduction tables. *)

type summary = {
  n : int;  (** number of samples *)
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator) *)
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val summarize : float list -> summary option
(** [summarize xs] is [None] on the empty list. *)

val percentile : float array -> float -> float
(** [percentile sorted q] with [q] in [\[0,1\]] over a sorted array,
    linear interpolation between ranks.  Requires a non-empty array. *)

val mean : float list -> float
(** Requires a non-empty list. *)

val histogram : buckets:int -> float list -> (float * float * int) list
(** [histogram ~buckets xs] is a list of [(lo, hi, count)] covering
    [\[min xs, max xs\]] with equal-width buckets.  Empty input gives
    the empty list. *)
