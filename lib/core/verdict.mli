(** Per-run verdicts against the STP specification (§2.1/§2.4).

    Safety: at every point of the run, [Y] is a prefix of [X].
    Liveness (relative to the schedule actually played): every data
    item was written before the run ended.  A truncated-but-safe run
    that simply ran out of budget is reported as such, distinct from a
    quiescent deadlock. *)

type t = {
  safe : bool;  (** no point violated the prefix property *)
  complete : bool;  (** [|Y| = |X|] at the end *)
  deadlocked : bool;  (** the run stopped because nothing could ever change *)
  steps : int;
  messages : int;  (** total sends on both channels *)
  first_violation : int option;  (** earliest unsafe time, if any *)
  completed_at : int option;
  recovered : bool option;
      (** the recovery verdict, once {!assess_recovery} has been
          applied; [None] for ordinary (fault-free) runs *)
  stabilised : bool option;
      (** the stabilisation verdict, once {!assess_stabilisation} has
          been applied; [None] for runs that started in the designated
          states *)
}

val of_result : Kernel.Runner.result -> t
(** [recovered] starts as [None]; fault-injection callers refine it
    with {!assess_recovery}. *)

val all_good : t -> bool
(** Safe and complete. *)

val assess_recovery : last_fault:int -> within:int -> t -> t
(** The §5 recovery notion made executable: the run {e recovered} when
    it stayed safe, completed, and did so within [within] steps of the
    last injected fault ([completed_at - last_fault <= within], which
    cannot overflow for any [within]).
    Returns the verdict with [recovered = Some _].  A [last_fault]
    beyond the trace end ([> steps]) yields [Some false], not a
    vacuous pass — the claimed fault never landed inside the run;
    [within = 0] is the defined boundary "completed at the fault
    itself".  Negative arguments raise [Invalid_argument]. *)

val time_to_recover : last_fault:int -> t -> int option
(** Steps from the last injected fault to completion for a safe,
    completed run ([0] when the run finished before the fault landed);
    [None] when the run was unsafe, never completed, or the claimed
    fault time lies beyond the trace end. *)

val assess_stabilisation : within:int -> t -> t
(** The corrupted-start analogue of {!assess_recovery}: the run
    {e stabilised} when it stayed safe, completed, and did so within
    [within] steps of its (possibly corrupted) start
    ([completed_at <= within]).  Returns the verdict with
    [stabilised = Some _]; negative [within] raises. *)

val time_to_stabilise : t -> int option
(** Steps from the corrupted start to completion for a safe, completed
    run — the stabilisation time the E15 sweep maximises; [None] when
    the run was unsafe or never completed. *)

val pp : Format.formatter -> t -> unit

val to_report : t -> Stdx.Report.t
(** The verdict as typed IR (id ["verdict"], [ok = all_good], further
    required to have recovered when a recovery verdict is present). *)
