(** The reproduction experiments E1–E7.

    The paper (PODC 1989) is pure theory — no tables or figures — so
    each experiment operationalises one theorem or claim; DESIGN.md §3
    holds the index and EXPERIMENTS.md the paper-vs-measured record.
    Every driver returns both a rendered table and a boolean verdict
    stating whether the *shape* the paper predicts held on this
    execution; the test suite asserts the verdicts at small parameters
    and the benchmark harness prints the tables at full parameters.

    - {b E1} (Theorem 1 tightness): [α(m)] values and exhaustive
      verification that the §3 protocol transmits all [α(m)]
      repetition-free sequences over reorder+dup (and its §4 variant
      over reorder+del).
    - {b E2} (Theorem 1 impossibility): attack-search outcomes over
      reorder+dup — clean closures at the bound, concrete safety or
      starvation witnesses beyond it and for every zoo protocol that
      claims [|𝒳| > α(m)].
    - {b E3} (Theorem 2): the same over reorder+del against *bounded*
      protocols, plus the [c]/[δ_ℓ] resource table of Lemma 4.
    - {b E4} (Definition 2): learning-gap profiles — flat for the
      bounded §4 protocol, growing with input length for the unbounded
      ladder protocol.
    - {b E5} (§5): recovery time after a single injected fault — flat
      for the bounded protocol, growing with the input length for the
      weakly-bounded hybrid.
    - {b E6} (§2.3–2.4): knowledge timelines [t_i], their stability,
      and the lead of knowledge over writing.
    - {b E7}: cost context — messages per delivered item across the
      protocol zoo (alphabet size vs. traffic trade-off).  The paper
      makes no quantitative claim here; the verdict only checks that
      every correct protocol completed its runs.
    - {b E8} (§6 future work): Monte-Carlo failure probabilities of
      over-bound protocols under random fair schedules.
    - {b E9}: protocol-space census at [m = 1] — universality of
      Theorem 1 on sampled candidates.
    - {b E10}: the header-space / reordering-lag crossover on
      lag-bounded channels.
    - {b E11}: nested mutual knowledge — one causal round trip per
      level.
    - {b E12}: recoverability (dead-state analysis), Property 2's
      executable face. *)

type result = Stdx.Report.t
(** Each experiment builds a typed {!Stdx.Report}: the text renderer
    prints its tables ({!Stdx.Report.table_to_text}), and the same
    value feeds the JSON/CSV artifact writers.  The legacy field reads
    are available as accessors below. *)

val id : result -> string
(** "E1" … "E12". *)

val title : result -> string

val ok : result -> bool
(** The paper-predicted shape held. *)

val table : result -> string
(** The rendered text body — identical bytes to the pre-IR [table]
    field. *)

val notes : result -> string list
(** Caveats, parameters, deviations. *)

val e1_alpha_tightness : ?m_max:int -> ?m_verify:int -> ?seeds:int -> unit -> result
(** [m_max] (default 12) rows of the α table; exhaustive protocol
    verification for [m ≤ m_verify] (default 3; 4 is still fast). *)

val e2_dup_attacks : ?m:int -> unit -> result
(** Attack table over reorder+dup instances with domain/alphabet size
    [m] (default 2). *)

val e3_del_attacks : ?m:int -> ?f_const:int -> unit -> result
(** Attack table over reorder+del, plus the [δ_ℓ] resource column for
    an [f(i) = f_const] bound (default 4). *)

val e4_boundedness : ?domain:int -> ?max_len:int -> ?seeds:int -> unit -> result

val e5_weak_boundedness : ?domain:int -> ?max_len:int -> ?seeds:int -> unit -> result

val e6_knowledge_timeline : ?m:int -> ?seeds:int -> unit -> result

val e7_throughput : ?seeds:int -> ?max_len:int -> unit -> result

val e8_probabilistic : ?trials:int -> ?max_len:int -> unit -> result
(** The §6 extension: Monte-Carlo failure probabilities of over-bound
    protocols under random fair schedules vs. the tight protocol's
    empty failure set. *)

val e9_census : ?samples:int -> ?states:int -> unit -> result
(** The universality probe: random non-uniform protocols at [m = 1]
    against [|𝒳| = 3 > α(1)], plus the at-the-bound control. *)

val e10_crossover : ?h_max:int -> ?lag_max:int -> unit -> result
(** Bounded-header Stenning over lag-bounded reordering channels: each
    (header space, lag) cell is an exhaustive attack verdict; the
    witness/clean boundary sits at [h = lag + 2]. *)

val e11_knowledge_ladder : ?m:int -> ?seeds:int -> ?depth:int -> unit -> result
(** Nested mutual knowledge [K_S φ], [K_R K_S φ], … of a delivery
    fact: each level's first-attainment time is one causal round trip
    later, and the ladder falls off — the finite-run face of the
    common-knowledge impossibility. *)

val e12_recoverability : ?input:int list -> unit -> result
(** Property 2's executable face: exhaustive dead-state analysis —
    retransmitting protocols keep completion reachable from every
    state, one-shot senders die with the first deletion. *)

val all : ?quick:bool -> unit -> result list
(** Every experiment; [quick] (default false) shrinks parameters to
    test-suite scale. *)

val pp_result : Format.formatter -> result -> unit
