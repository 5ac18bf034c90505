(** Finite runs (prefixes of the infinite runs of §2.2).

    A trace records everything the knowledge layer and the verdict
    checkers need about one execution: the input tape, the move
    sequence, both processes' complete local histories with their
    per-time lengths (so the local view at any point [(r,t)] can be
    reconstructed), output growth, and the final global state.  The
    histories of the complete-history interpretation (§2.3) live here
    and nowhere else: the builder records them from each step's move
    and the stepped process's actions, so global states stay free of
    them.  Traces are immutable once finished. *)

type t

(** {1 Construction} *)

type builder

val start : ?sender:Proc.t -> ?receiver:Proc.t -> Protocol.t -> input:int array -> builder
(** A builder positioned at the initial global state; the optional
    process overrides are the corrupted-start seam of
    {!Global.initial}. *)

val current : builder -> Global.t

val step : builder -> Move.t -> unit
(** [step b move] performs [move] from [current b] ({!Sim.transition})
    and records it: the move, the stepped process's history entries
    ([Woke] or [Got m], then [Sent]/[Wrote] in action order; drops,
    restarts and corruptions record none) and the point's lengths.
    @raise Sim.Model_violation as {!Sim.transition} does, recording
    nothing. *)

val finish : builder -> t

(** {1 Accessors} *)

val protocol_name : t -> string
val input : t -> int array
val length : t -> int
(** Number of moves (so there are [length + 1] points, [0..length]). *)

val moves : t -> Move.t array
val final : t -> Global.t

val r_view : t -> int -> Hist.t
(** [r_view t time] is the receiver's complete local history at point
    [(t, time)], [0 <= time <= length t].  Rebuilt on each call from
    the trace's own immutable record, in time linear in its length. *)

val s_view : t -> int -> Hist.t

val view_keys : t -> [ `Sender | `Receiver ] -> suffix:Hist.entry list -> string array
(** [view_keys t side ~suffix] holds, for every [time] in
    [0 .. length t], [Hist.encode] of [side]'s view at [time] with
    [suffix] appended — built in one pass over the run's entries, so
    keying every point of a trace costs the keys' bytes, not a rebuilt
    view per point. *)

val output_at : t -> int -> int list
(** The output tape at a point. *)

val output_length_at : t -> int -> int

val completed_at : t -> int option
(** First time at which the whole input had been written, if any. *)

val first_safety_violation : t -> int option
(** First time at which the output stopped being a prefix of the
    input, if ever (a correct protocol never has one). *)

val messages_sent : t -> int
(** Total sends on both channels over the run. *)

val pp_summary : Format.formatter -> t -> unit
