(* Order statistics for the benchmark's timings.  A run reports a
   median and a tail, never a total: on a shared host a fixed CPU loop
   already wanders by about ten percent from one repetition to the
   next, and only statistics over many operations stay put. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

type tail = {
  pct : float;  (** the nearest-rank percentile reported *)
  value : float;
  n : int;  (** samples it was taken from *)
}

(* The highest nearest-rank percentile, up to p90, that still leaves at
   least ten samples above it: p90 from 100 samples on, a lower
   percentile below that.  It never drops under the median, so with 21
   samples or fewer the tail is the nearest-rank median. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.tail: no samples";
  let p90 = ((9 * n) + 9) / 10 and p50 = (n + 1) / 2 in
  let rank, pct =
    if n - p90 >= 10 then (p90, 90.0)
    else if n - 10 > p50 then (n - 10, 100.0 *. float_of_int (n - 10) /. float_of_int n)
    else (p50, 50.0)
  in
  { pct; value = a.(rank - 1); n }
