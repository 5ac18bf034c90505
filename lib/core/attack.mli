(** Constructive impossibility: the product attack search.

    The proofs of Theorems 1 and 2 steer two runs with different
    inputs into points the receiver cannot tell apart, then extend one
    until the receiver commits to output the other input's data —
    violating safety.  This module performs that construction on a
    concrete protocol: a breadth-first search over *pairs* of
    executions constrained so the receiver observes exactly the same
    events in both.

    - Receiver-visible moves ([Wake_receiver], [Deliver_to_receiver μ])
      are synchronised: a delivery is jointly enabled only if [μ] is
      deliverable in both runs.  Because the receiver is deterministic
      and starts in the same state (Property 1a), its states — and the
      output tape — remain identical in both runs throughout.
    - Sender-side moves (sender wake-ups, deliveries to the sender,
      drops) proceed independently per run, exactly as in the proofs
      ("for each run [r'] ∈ ℛ' we can find an extension …").

    A joint state where the common output violates the prefix property
    for either input is a {b safety witness}: a concrete pair of
    schedules under which the protocol writes wrong data.  A joint
    graph that closes (no unexplored states) without a violation and
    contains a fair-for-one-run cycle that cannot write past the
    common prefix is a {b starvation witness}: the adversary can keep
    one run's receiver ignorant forever while honouring that run's
    fairness.  For protocols meeting the [α(m)] bound the search
    closes with neither — the experimental face of tightness.

    Engine internals: both searches are the one BFS loop
    {!Kernel.Bfs.run} on a dense-id table, which interns each
    generated state's key into a compact int id, keeps parent, move
    and depth per id in flat arrays, and holds a state only until it
    is expanded.  BFS frontiers are chunked varint queues
    ({!Stdx.Frontier}) of bare ids, one per state.  Each search
    supplies only its root, key, successor rule and stop rule (an
    unsafe admitted state).  {!search_single} keys a state by its
    [Global.emit] fingerprint.  The joint search holds a joint state
    as one int packing its two runs' ids in per-input {!Runstate}
    stores, and keys it by the two fingerprint ids the stores cached
    when those ids were new — two array reads, no state emitted or
    hashed; {!search} shares the stores across all pairs of a sweep,
    so each single-run transition is simulated once per input.  The
    stores also keep, per id, a row of what the joint search reads of
    the state (deliverable and droppable messages, send totals, the
    safety bit, the channel debt), so expanding a joint state reads
    ints and never walks a channel.  Joint moves are int codes
    ([tag * stride + move code]) until a witness path decodes them.
    For each expanded id the joint search records its store-id pair
    and its out-edges in admission order, from the loop's [moves] and
    [on_edge] callbacks; the starvation pass reads those arrays and
    runs Tarjan's algorithm on int arrays, so a state's fingerprint is
    hashed at most once and no successor is simulated twice.  Each
    domain keeps one joint table, edge graph and set of SCC arrays and
    reuses them, emptied first ({!Kernel.Bfs.reset}), for every joint
    search it runs, so a sweep grows them once; the frontier is still
    made per search.

    With [~symm:true], on a protocol declaring an
    {!Kernel.Symm.equivariance}, {!search} is quotiented by
    data-alphabet permutations composed with the run swap: it searches
    one representative per orbit of input pairs and translates witness
    paths back.  Outcomes are unchanged; up to 2·m! pair searches
    collapse into one.  A single search is never quotiented:
    relabelling it only maps it onto an isomorphic space of the same
    size.  See {!Kernel.Symm} and DESIGN.md ("The symmetry
    quotient"). *)

type joint_move =
  | Sync of Kernel.Move.t  (** receiver-visible; applied to both runs *)
  | Only1 of Kernel.Move.t  (** sender-side move of run 1 *)
  | Only2 of Kernel.Move.t

type kind =
  | Safety of { violated_run : int }
      (** 1 or 2: whose input the common output betrayed *)
  | Starvation of { starved_run : int }
      (** the graph closed; this run can be scheduled fairly forever
          while its receiver never writes past the common prefix *)

type witness = {
  x1 : int list;
  x2 : int list;
  kind : kind;
  joint_moves : joint_move list;  (** path from the initial joint state *)
  depth : int;
  states_explored : int;
}

type outcome =
  | Witness of witness
  | No_violation of { closed : bool; states_explored : int }
      (** [closed = true]: the whole joint space was exhausted —
          a proof (for this pair and these move bounds) that the
          adversary cannot win.  [closed = false]: search cut off by
          the depth or state budget. *)

(** Per-input memoised single-run transitions.

    A joint move decomposes into [Sim.apply] calls on one run, and a
    run's successor under a move depends only on that run's state — so
    an all-pairs sweep can compute each (state, move) successor once
    per {e input} and share it across every pair the input appears in.
    Store ids are interned {!Kernel.Global.emit_run_key} keys — the
    state fingerprint refined with the channel counters and safety
    bit, which is every observable the searches read and is closed
    under stepping — so the memo is exact for the search semantics:
    sharing a store can never change what any search computes, only
    how often the simulator runs.  A store is tied to one input:
    protocols may close over their input tape (the census families
    do), so stores are never shared across inputs.

    Per id a store keeps the state, the id of its [Global.emit]
    fingerprint (interned once, when the id is new), a row of what
    the joint search reads of the state (computed once, when the id
    is new) and its memoised successor ids, so a memo hit returns an
    id without allocating.  Stores are mutex-guarded; sharing one
    across the domains of a parallel sweep is safe.  At [jobs = 1]
    the lock is uncontended but not free: the lock/unlock pair on the
    hit path measured 4.6% of the m=4 pair sweep's CPU samples before
    the joint search stopped allocating, and 6.9% after. *)
module Runstate : sig
  type t

  val create : Kernel.Protocol.t -> x:int list -> t
  (** A fresh store for runs of [p] on input [x]; the initial state is
      interned as id 0, the only root a store has: every other id is
      reached through {!apply}. *)

  val apply : t -> int -> Kernel.Move.t -> int
  (** [apply t id move] is the id of the successor of state [id] under
      [move], memoised per [(id, move)]; {!rejected} when the
      simulator refuses the move ([Sim.Model_violation]), which is
      cached too.
      @raise Invalid_argument on a corruption move: corrupted states
      are search roots, never transitions. *)

  val rejected : int
  (** The id {!apply} returns for a refused move: negative, never a
      state's. *)

  val states : t -> int
  (** Distinct states interned so far. *)

  val hits : t -> int
  (** Memo hits so far — the [Sim.apply] calls the store saved. *)
end

(** Lifetime resource counters for searches and sweeps.

    A [Stats.t] accumulator is threaded through any number of searches
    (it is mutex-guarded, so the parallel sweep merges into it from
    every domain): per-search peaks max-merge, spill volumes sum.  The
    frontier peaks ([peak_frontier_bytes], [peak_frontier_len]) and
    [peak_joint_states] are {e budget-invariant} — identical whether
    the frontier spilled or stayed resident — which is what lets
    {!outcome_report}/{!search_report} surface them in artifacts that
    must stay byte-identical across [mem_budget_bytes] settings.  The
    spill counters ([peak_resident_bytes], [spilled_bytes],
    [spill_chunks]) are budget-variant by design: they are what E16
    and the smoke targets assert against the budget, and they are
    deliberately kept out of report IR. *)
module Stats : sig
  type t

  type snapshot = {
    peak_frontier_bytes : int;
        (** worst single search's peak queued frontier bytes *)
    peak_frontier_len : int;  (** worst single search's peak queued ints *)
    peak_resident_bytes : int;
        (** worst single search's peak in-memory frontier footprint;
            under a budget, stays within
            [max mem_budget_bytes (2 * chunk capacity)] *)
    spilled_bytes : int;  (** total bytes written to spill files *)
    spill_chunks : int;  (** total chunks written to spill files *)
    peak_joint_states : int;  (** largest per-search state table *)
  }

  val create : unit -> t
  val snapshot : t -> snapshot

  val with_frontier :
    ?mem_budget_bytes:int ->
    ?stats:t ->
    states:(unit -> int) ->
    (Stdx.Frontier.t -> 'a) ->
    'a
  (** [with_frontier ?mem_budget_bytes ?stats ~states f] runs one
      search's loop [f] on a fresh frontier; on every exit path,
      exceptions included, it merges the frontier's counters and
      [states ()] into [stats] and closes the frontier, releasing any
      spill file.  Every engine with a frontier runs its
      {!Kernel.Bfs.run} inside it: {!search_pair}, {!search_single},
      {!Core.Stab}'s corrupted-root search and the forward pass of
      {!Core.Spec.recoverability} (which passes no [stats]). *)
end

val search_pair :
  Kernel.Protocol.t ->
  x1:int list ->
  x2:int list ->
  ?depth:int ->
  ?max_states:int ->
  ?max_sends_per_sender:int ->
  ?max_sends_per_receiver:int ->
  ?runstates:Runstate.t * Runstate.t ->
  ?mem_budget_bytes:int ->
  ?stats:Stats.t ->
  unit ->
  outcome
(** [search_pair p ~x1 ~x2 ()] explores the joint system.
    [max_sends_per_sender] (default 24) caps each sender's total
    sends, keeping deletion-channel state spaces finite; the cap is
    generous relative to the input lengths used by the experiments
    and never binds on duplication channels (whose state saturates).
    [max_sends_per_receiver] (default 24) likewise caps the
    receiver's acknowledgement sends — necessary on deleting
    channels, where the reverse channel's multiset would otherwise
    grow without bound and the joint space would never close.
    Defaults: [depth = 64], [max_states = 200_000].  Sender-side drops
    are joint moves exactly when the protocol's channel deletes.
    [runstates] supplies the two runs' transition stores (run 1's
    first) — pass stores shared with other pairs to reuse their
    memoised transitions, as {!search} does; when omitted, fresh
    private stores are created.  Sharing never changes the outcome,
    only the work.  [mem_budget_bytes] bounds the BFS frontier's
    resident memory: past the budget, full chunks spill to an unlinked
    temp file and page back in FIFO order — the outcome (and any
    report built from it) is byte-identical to the unbounded search's,
    only where frontier bytes live changes.  [stats] names an
    accumulator to merge this search's resource counters into (see
    {!Stats}). *)

val search_single :
  Kernel.Protocol.t ->
  x:int list ->
  ?depth:int ->
  ?max_states:int ->
  ?allow_drops:bool ->
  ?max_sends_per_sender:int ->
  ?max_sends_per_receiver:int ->
  ?mem_budget_bytes:int ->
  ?stats:Stats.t ->
  unit ->
  outcome
(** Single-run safety search: BFS over *one* run's full adversary
    choice space for a reachable unsafe state.  Catches violations
    that need no confuser pair — e.g. duplication making the
    Alternating Bit receiver write a third item on a two-item input.
    The witness's [x1 = x2 = x] and all moves are [Only1].
    [allow_drops] defaults to whether the channel deletes; [false]
    searches the no-deletion subsystem. *)

val eligible_pairs : xs:int list list -> (int list * int list) list
(** The unordered pairs of distinct sequences in [xs] where neither is
    a prefix of the other — exactly the pairs {!search} sweeps (prefix
    pairs cannot produce safety witnesses: the shorter input is
    consistent with everything the receiver sees).  Exposed so
    experiments and benchmarks can report sweep sizes without
    duplicating the eligibility rule. *)

val canon_pair_swap :
  m:int ->
  int list ->
  int list ->
  (int list * int list) * Kernel.Symm.perm * bool
(** Canonical form of an input pair under the {e composed} quotient
    group — data-alphabet permutations × run swap: the smaller of
    [Symm.canon_pair ~m x1 x2] and [Symm.canon_pair ~m x2 x1].  The
    boolean is [true] when the swapped ordering won, i.e. the
    representative's outcome must be mirrored (runs exchanged) after
    relabelling.  Exposed so experiments can count composed-orbit
    representatives without re-deriving the rule {!search} applies. *)

val search :
  Kernel.Protocol.t ->
  xs:int list list ->
  ?depth:int ->
  ?max_states:int ->
  ?max_sends_per_sender:int ->
  ?max_sends_per_receiver:int ->
  ?jobs:int ->
  ?mem_budget_bytes:int ->
  ?stats:Stats.t ->
  ?symm:bool ->
  unit ->
  (int list * int list * outcome) list * witness option
(** The outcome of {!search_pair} on every pair in
    [eligible_pairs ~xs], in that order, and the first witness, if any.

    Each pair is tagged with a representative and a map back; each
    representative is searched once, in order of first occurrence, and
    its outcome mapped back to every pair it stands for.  Without
    [symm] (the default) a pair is its own representative, mapped back
    by the identity, so a pair listed twice (an input repeated in [xs])
    is searched once.  With [symm], on a protocol declaring an
    equivariance, the representative is the pair's canonical form
    under data-alphabet permutations composed with the run swap
    ({!canon_pair_swap}); the map back relabels a witness through the
    member's inverse permutation and, when the swapped ordering won,
    mirrors the runs (see DESIGN.md, "The symmetry quotient").

    One {!Runstate} store per distinct searched input is shared by all
    its searches, so each single-run transition is simulated once per
    input.  [jobs] (default: [STP_JOBS] or 1) fans the searches out
    over that many domains via {!Par.map}; the outcomes and first
    witness are identical at every job count.  [mem_budget_bytes] and
    [stats] are threaded to every search as in {!search_pair}. *)

val run_moves : witness -> which:int -> Kernel.Move.t list
(** Project the joint path onto one run's schedule ([which] ∈ {1,2}) —
    a replayable script for {!Kernel.Strategy.scripted}. *)

val pp_witness : Format.formatter -> witness -> unit

val outcome_report :
  x1:int list -> x2:int list -> ?stats:Stats.t -> outcome -> Stdx.Report.t
(** A single search outcome as typed IR (id ["attack"]); includes the
    witness metrics block when one was found.  [ok] is [None] — a
    witness is the expected result when probing past the bound.
    [stats] appends a "search resources" metrics block carrying the
    budget-invariant counters only (peak frontier bytes/length, peak
    joint states) — artifacts stay byte-identical across
    [mem_budget_bytes] settings. *)

val search_report :
  ?stats:Stats.t ->
  (int list * int list * outcome) list ->
  witness option ->
  Stdx.Report.t
(** The all-pairs sweep as typed IR: one row per pair plus the first
    witness, if any.  [stats] as in {!outcome_report}. *)
