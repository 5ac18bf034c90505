(** Wall-clock time for budgets and measured durations.

    Every [max_seconds] guard and every printed "wall seconds" figure
    reads this clock.  [Sys.time] would be the wrong one: it is the
    process's CPU time, which with N busy OCaml domains runs about N
    times faster than the wall, so a budget under [--jobs N] would fire
    early and a parallel sweep would report N times its duration. *)

val now : unit -> float
(** Seconds since the epoch ([Unix.gettimeofday]). *)

val deadline : float option -> unit -> bool
(** [deadline budget] starts counting now.  The guard it returns is
    [true] once [budget] seconds of wall time have passed — from the
    start for a budget of 0 — and never for [None]. *)
