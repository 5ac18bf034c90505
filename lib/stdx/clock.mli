(** Elapsed real time for budgets and measured durations.

    Every [max_seconds] guard, every printed "wall seconds" figure and
    the serve daemon's idle timer read this clock.  It is the kernel's
    monotonic clock: a step of the host's calendar clock (NTP, a manual
    reset) cannot fire a budget early or hold one open.  [Sys.time]
    would be the wrong one too: it is the process's CPU time, which
    with N busy OCaml domains runs about N times faster than the wall,
    so a budget under [--jobs N] would fire early and a parallel sweep
    would report N times its duration. *)

val now : unit -> float
(** Seconds on the monotonic clock, from an arbitrary origin: only
    differences between two readings mean anything. *)

val deadline : float option -> unit -> bool
(** [deadline budget] starts counting now.  The guard it returns is
    [true] once [budget] seconds of wall time have passed — from the
    start for a budget of 0 — and never for [None]. *)
