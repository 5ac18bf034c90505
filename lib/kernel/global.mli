(** Global states [(s_E, s_S, s_R)] of §2.2.

    The environment component [s_E] is the input tape, the output tape,
    and the two channel states; [s_S] and [s_R] are the process
    states.  The complete local histories of the complete-history
    interpretation (§2.3) belong to a point [(r, t)] of a run, not to a
    state: the trace builder records them ({!Trace}), so no state a
    search generates carries them.  Global states are persistent: the
    simulator, explorer, and attack search all branch over them. *)

type t = {
  input : int array;  (** the input tape [X], fixed for the run *)
  sender : Proc.t;
  receiver : Proc.t;
  chan_sr : Channel.Chan.t;  (** sender → receiver channel *)
  chan_rs : Channel.Chan.t;  (** receiver → sender channel *)
  output_rev : int list;  (** the output tape [Y], newest first *)
  output_len : int;  (** [List.length output_rev], maintained on Write *)
  output_ok : bool;
      (** whether [Y] is a prefix of [X], maintained on Write — makes
          the per-step safety check O(1) instead of a tape rescan.
          {!Sim} is the one module that extends the tape: it routes
          every receiver [Write] into these three fields. *)
  time : int;  (** number of moves taken from the initial state *)
}

val initial : ?sender:Proc.t -> ?receiver:Proc.t -> Protocol.t -> input:int array -> t
(** The initial global state [𝒢₀] for this protocol and input: both
    channels empty, fresh processes, empty output.
    [?sender]/[?receiver] override the designated process values — the
    corrupted-start seam ({!Protocol.t.perturb}): a stabilisation sweep
    roots a run at an adversarially chosen local state while the rest
    of the system (channels, output) still boots clean. *)

val output : t -> int list
(** The output tape [Y], oldest first. *)

val output_length : t -> int

val safety_ok : t -> bool
(** Whether [Y] is currently a prefix of [X] — the Safety condition.
    O(1): reads the incrementally maintained [output_ok] field. *)

val complete : t -> bool
(** Whether [|Y| = |X|]: every data item has been written. *)

val emit : Stdx.Codec.t -> t -> unit
(** Append the canonical binary fingerprint of the
    *transition-relevant* part of the state (process states, channel
    contents, output length) to a codec.  Cumulative counters and the
    clock are excluded: two states with equal fingerprints generate
    identical future behaviours.  The engine hot path: each process
    appends its memoised, length-prefixed blob and each channel writes
    its body in place, so emitting into a reusable buffer (then
    {!Stdx.Intern.intern_bytes}) materialises no fresh string per
    generated state. *)

val encode : t -> string
(** [emit] into a throwaway codec, copied out — for callers that want
    the fingerprint as a standalone string key. *)

val emit_run_key : Stdx.Codec.t -> t -> unit
(** {!emit} refined with the channel counter multisets and the safety
    bit: the complete set of observables engine decisions read (move
    enabling, send-cap checks, fairness debt, safety).  The move clock
    is excluded — a write-only accumulator that never feeds back into
    evolution — so states equal under this key have
    behaviourally interchangeable futures.  The memo key of
    {!Core.Attack.Runstate} and the state key of the corrupted-root
    search {!Core.Stab.search}. *)
