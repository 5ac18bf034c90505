(** The copy-count recursion of §4.

    The deletion-channel impossibility proof (Theorem 2) needs the
    channel to hoard copies of messages.  For an [f]-bounded system it
    fixes [c = Σ_{i=1}^{β} f(i)] (the step budget within which an
    "efficient" [β]-extension must let the receiver learn) and defines

    {v δ_m = c,   δ_ℓ = δ_{ℓ+1} · (1 + c·(m−ℓ)·α(m−ℓ)) v}

    so that [δ_0] copies of each message suffice to drive the induction
    of Lemma 4 down to a two-run del-decisive tuple.  These quantities
    appear in experiment E3's report to show the (enormous but finite)
    resource the constructive attack is entitled to; the attack search
    itself explores far smaller instances. *)

val c_of_f : f:(int -> int) -> beta:int -> int
(** [c_of_f ~f ~beta] is [Σ_{i=1}^{β} f(i)]. *)

val deltas : m:int -> c:int -> Stdx.Bignat.t array
(** [deltas ~m ~c] is [[|δ_0; …; δ_m|]] for the given alphabet size and
    step budget.  [δ_m = c]. *)
