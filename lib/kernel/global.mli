(** Global states [(s_E, s_S, s_R)] of §2.2.

    The environment component [s_E] is the input tape, the output tape,
    and the two channel states; [s_S] and [s_R] are the process states
    together with their kernel-recorded complete histories.  Global
    states are persistent: the simulator, explorer, and attack search
    all branch over them. *)

type t = {
  input : int array;  (** the input tape [X], fixed for the run *)
  sender : Proc.t;
  receiver : Proc.t;
  s_hist : Hist.t;  (** sender's complete local history *)
  r_hist : Hist.t;  (** receiver's complete local history *)
  chan_sr : Channel.Chan.t;  (** sender → receiver channel *)
  chan_rs : Channel.Chan.t;  (** receiver → sender channel *)
  output_rev : int list;  (** the output tape [Y], newest first *)
  output_len : int;  (** [List.length output_rev], maintained on Write *)
  output_ok : bool;
      (** whether [Y] is a prefix of [X], maintained on Write — makes
          the per-step safety check O(1) instead of a tape rescan *)
  time : int;  (** number of moves taken from the initial state *)
}

val initial : ?sender:Proc.t -> ?receiver:Proc.t -> Protocol.t -> input:int array -> t
(** The initial global state [𝒢₀] for this protocol and input: both
    channels empty, fresh processes, empty histories and output.
    [?sender]/[?receiver] override the designated process values — the
    corrupted-start seam ({!Protocol.t.perturb}): a stabilisation sweep
    roots a run at an adversarially chosen local state while the rest
    of the system (channels, output, histories) still boots clean. *)

val output : t -> int list
(** The output tape [Y], oldest first. *)

val output_length : t -> int

val safety_ok : t -> bool
(** Whether [Y] is currently a prefix of [X] — the Safety condition.
    O(1): reads the incrementally maintained [output_ok] field. *)

val write : t -> int -> t
(** [write t d] appends [d] to the output tape, maintaining
    [output_len] and [output_ok].  The only legal way to extend the
    tape — the simulator routes every receiver [Write] action through
    it. *)

val complete : t -> bool
(** Whether [|Y| = |X|]: every data item has been written. *)

val emit : Stdx.Codec.t -> t -> unit
(** Append the canonical binary fingerprint of the
    *transition-relevant* part of the state (process states, channel
    contents, output length) to a codec.  Histories and cumulative
    counters are excluded: two states with equal fingerprints generate
    identical future behaviours.  The engine hot path: component
    encodings are memoised per distinct value, so emitting into a
    reusable buffer (then {!Stdx.Intern.intern_bytes}) materialises no
    fresh string per generated state. *)

val encode : t -> string
(** [emit] into a throwaway codec, copied out — for callers that want
    the fingerprint as a standalone string key. *)

val emit_with_r_view : Stdx.Codec.t -> t -> unit
(** Like {!emit} but additionally distinguishes receiver views —
    for searches that must not merge states the receiver can tell
    apart. *)

val emit_run_key : Stdx.Codec.t -> t -> unit
(** {!emit} refined with the channel counter multisets and the safety
    bit: the complete set of observables engine decisions read (move
    enabling, send-cap checks, fairness debt, safety).  Histories and
    the move clock are excluded — write-only accumulators that never
    feed back into evolution — so states equal under this key have
    behaviourally interchangeable futures.  The memo key of
    {!Core.Attack.Runstate} and the state key of the corrupted-root
    search {!Core.Stab.search}. *)

val encode_with_r_view : t -> string
(** String form of {!emit_with_r_view}. *)
