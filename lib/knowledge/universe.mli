(** Point universes and receiver indistinguishability.

    §2.2–2.3 of the paper: a system is a set of runs; a *point* is a
    pair [(r,t)]; the receiver cannot tell two points apart,
    [(r,t) ~_R (r',t')], when its local state — under the
    complete-history interpretation, its entire recorded history — is
    the same at both.  Knowledge is evaluated by quantifying over
    indistinguishable points.

    A universe here is a finite set of finite traces standing for the
    system [ℛ].  When the traces come from {!Kernel.Explore.iter_runs}
    the universe is the *exact* truncated system and the knowledge
    computed from it is exact for that truncation; when they come from
    sampled schedules the universe under-approximates [ℛ], so computed
    knowledge over-approximates true knowledge (fewer runs means fewer
    confusers).  Experiments state which mode they use. *)

type point = { run : int; time : int }
(** [run] indexes into the universe's trace list. *)

type t

val of_traces : Kernel.Trace.t list -> t
(** Builds the universe and indexes every point of every trace by the
    receiver's view. *)

val sample :
  Kernel.Protocol.t ->
  xs:int list list ->
  strategies:Kernel.Strategy.t list ->
  seeds:int ->
  max_steps:int ->
  post_roll:int ->
  t
(** A sampled universe: one {!Kernel.Runner.run} per input, per
    strategy, per seed [s = 1 … seeds] (its rng [Stdx.Rng.create s]),
    in that nesting order — run indices follow it. *)

val traces : t -> Kernel.Trace.t array

val runs_of : t -> int list -> int list
(** The runs whose input is [x], ascending. *)

val n_points : t -> int

val points : t -> point list
(** Every point [(r,t)], [0 ≤ t ≤ length r]. *)

val input_of : t -> point -> int array
(** The input tape [X^r] of the point's run. *)

val r_class : t -> point -> point list
(** All points of the universe the receiver cannot tell apart from
    this one (including the point itself). *)

val s_class : t -> point -> point list
(** The sender-side analogue, [~_S]: all points with the same sender
    view.  Needed for nested knowledge ([K_S K_R …], experiment E11);
    note the sender's view includes its input-dependent behaviour, so
    on non-uniform protocols the sender often "knows" [X] outright —
    what it must *learn* is what the receiver has seen. *)

val agent_class : t -> [ `Sender | `Receiver ] -> point -> point list

val r_view_key : t -> point -> string
(** The encoded receiver view at the point (the [~_R]-class key). *)

val n_classes : t -> int
(** Number of distinct receiver views in the universe. *)

val output_length_at : t -> point -> int
(** [|Y|] at the point — the basic fact of §2.4's liveness clause. *)
