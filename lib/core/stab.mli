(** Self-stabilisation sweeps over corrupted-start state spaces.

    Dolev–Dubois–Potop-Butucaru–Tixeuil ask, for exactly our
    unreliable non-FIFO channels, which protocols converge when the
    machines boot in {e arbitrary} local states and how fast.  This
    module makes the question executable against a protocol's declared
    {!Kernel.Protocol.perturb} enumeration: {!sweep} runs every
    corrupted-start pair as a scheduler session over {!Batch} (exact,
    bit-identical at every job count) and folds per-point
    {!Verdict.assess_stabilisation} verdicts into a worst-case
    time-to-stabilise; {!search} does the adversarial half, a
    single-run BFS rooted at {e every} corruption simultaneously that
    hunts for a reachable safety violation — the witness that a
    protocol is not self-stabilising. *)

val space :
  Kernel.Protocol.t ->
  input:int array ->
  (Kernel.Protocol.corrupted * Kernel.Protocol.corrupted) list
(** The full corrupted-start product (sender × receiver enumerations),
    validated via {!Kernel.Protocol.validate_perturb} first.  Raises
    [Invalid_argument] for protocols without a [perturb] seam or with
    an ill-formed one. *)

type point = {
  s_label : string;
  r_label : string;
  verdict : Verdict.t;  (** with [stabilised] assessed *)
  tts : int option;  (** {!Verdict.time_to_stabilise} *)
}

type sweep = {
  protocol_name : string;
  input : int list;
  space_size : int;  (** corrupted-start pairs swept *)
  stabilised : int;  (** points that converged within the window *)
  worst_tts : int option;
      (** max time-to-stabilise over converging points; [None] when no
          point was safe and complete *)
  all_stabilised : bool;
  points : point list;  (** in enumeration order, deterministic *)
}

val sweep :
  ?jobs:int ->
  ?timeslice:int ->
  ?strategy:Kernel.Strategy.t ->
  ?max_steps:int ->
  Kernel.Protocol.t ->
  input:int array ->
  within:int ->
  seed:int ->
  unit ->
  sweep
(** Run one session per corrupted-start pair (rng [Rng.split seed i]
    per point, round-robin strategy by default) and assess
    stabilisation within [within] steps of the start.  Results are
    bit-identical at every [jobs]/[timeslice] by the {!Batch}
    determinism contract. *)

type witness = {
  w_s_label : string;
  w_r_label : string;  (** which corrupted start the violation grows from *)
  moves : Kernel.Move.t list;  (** schedule from that root to the violation *)
  violation_depth : int;
}

type outcome = No_violation of { closed : bool; states : int } | Violation of witness

val search :
  ?depth:int ->
  ?max_states:int ->
  ?max_sends_per_sender:int ->
  ?max_sends_per_receiver:int ->
  ?mem_budget_bytes:int ->
  ?stats:Attack.Stats.t ->
  Kernel.Protocol.t ->
  input:int array ->
  unit ->
  outcome
(** Exact BFS over the union of every corrupted root's reachable
    single-run space (send caps bound it; drops are searched wherever
    the channel offers them; moves the simulator rejects are skipped),
    on the shared single-run table ({!Kernel.Bfs}, keyed
    by run keys).  [No_violation {closed = true}]
    means no corrupted start can reach a safety violation under the
    caps — the exhaustive half of a stabilisation argument.
    [mem_budget_bytes] spills the frontier to disk past the budget
    exactly as in {!Attack.search_pair} — outcomes are byte-identical
    either way; [stats] merges the search's resource counters into an
    {!Attack.Stats} accumulator, and the frontier's spill file is
    closed, on every exit path, an exception included. *)

val replay : Kernel.Protocol.t -> input:int array -> witness -> bool
(** Rebuild the witness's corrupted root (by label) and replay its
    moves through {!Kernel.Sim.apply}; [true] iff the final state
    violates safety — the check that a reported witness is a real
    violation, not a search artefact. *)

val relabel_witness : Kernel.Symm.equivariance -> (int -> int) -> witness -> witness
(** Translate a witness through a data-alphabet permutation (moves via
    {!Kernel.Symm.relabel_move}; corruption labels pass through, which
    is sound exactly when the protocol's perturb enumeration is
    data-independent — true of the counter-and-flag enumerations
    (abp, abp-stab, stenning, stenning-mod, stenning-stab, go-back-n,
    gbn-stab), NOT of selective-repeat, whose poisoned buffers hold
    literal data values).  With {!replay} this is the
    relabel-replayability contract: a witness found on input [x]
    replays to a real violation on [π(x)]. *)

type confirmed = {
  outcome : outcome;
  replayed : bool;  (** the witness {!replay}s to a violation; [false] without one *)
  relabel_replayed : bool option;
      (** the witness relabelled by the permutation exchanging data
          values 0 and 1 replays on the relabelled input; [None] without
          a witness, without a declared equivariance, or under
          [~relabel:false] *)
}

val confirm :
  ?depth:int ->
  ?max_states:int ->
  ?max_sends:int ->
  ?relabel:bool ->
  Kernel.Protocol.t ->
  input:int array ->
  unit ->
  confirmed
(** {!search} with [max_sends] capping both sides, then the witness
    checks: {!replay}, and unless [relabel] is [false] (default
    [true]) relabel-replay through {!relabel_witness}.  Pass
    [~relabel:false] for protocols whose perturb enumeration holds
    literal data. *)

val margins : sweep -> (string * int * int * int option) list * (string * int * int * int option) list
(** Per-start marginal aggregates [(label, points, stabilised,
    worst_tts)], first grouped by sender start and then by receiver
    start, in enumeration order — which single-register corruption is
    the slowest to recover from, without scanning the product table. *)

val sweep_report : ?title:string -> sweep -> Stdx.Report.t
(** The sweep as typed IR (id ["stab"], [ok = all_stabilised] — a
    non-converging corrupted start fails the artifact gate, mirroring
    [stp verify]). *)

val outcome_items : outcome -> Stdx.Report.item list
(** Report items for a {!search} outcome, appended to a sweep report
    by [stp stab --search]. *)
