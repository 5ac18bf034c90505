(** Epistemic formulas over point universes (§2.3, generalised).

    The paper evaluates [K_R(x_i = d)] and Boolean combinations; its
    closing section advertises the knowledge viewpoint as broadly
    applicable.  This module supplies the full propositional epistemic
    language over both processes, so nested assertions — [K_S K_R φ],
    "the sender knows the receiver knows φ" — can be evaluated and
    timed.  Experiment E11 uses it to reproduce a classic phenomenon
    the paper's machinery makes visible: each additional level of
    mutual knowledge about a delivery costs another causal round trip,
    and no finite run reaches common knowledge. *)

type agent = Sender | Receiver

type fact =
  | Item_eq of int * int  (** [x_i = d], [i] 1-based (§2.3's basic facts) *)
  | Output_ge of int  (** [|Y| ≥ n] (§2.4's basic facts) *)
  | Input_ge of int  (** [|X| ≥ n] *)

type t =
  | Fact of fact
  | Not of t
  | And of t * t
  | Or of t * t
  | Knows of agent * t  (** [K_p φ] *)

val knows_value : agent -> i:int -> domain:int -> t
(** [knows_value p ~i ~domain] is the paper's [K_p(x_i)] abbreviation:
    [⋁_{d ∈ D} K_p(x_i = d)]. *)

val chain : agent list -> t -> t
(** [chain [S; R; S] φ = Knows (S, Knows (R, Knows (S, φ)))]. *)

val alternating : depth:int -> first:agent -> t -> t
(** The mutual-knowledge ladder: [alternating ~depth:3 ~first:Sender φ]
    is [K_S K_R K_S φ]. *)

val eval : Universe.t -> Universe.point -> t -> bool
(** Kripke semantics over the universe: facts from the point's run,
    [Knows (p, φ)] quantifying over the point's [~_p] class.
    Exponential in nesting depth in the worst case; fine at the small
    depths and universes the experiments use. *)

val tabulate : Universe.t -> t -> Universe.point -> bool
(** Bottom-up truth tables over every point of the universe: one class
    sweep per [Knows] level, so deep nesting stays linear in the
    universe instead of exponential.  Use this when evaluating the same
    formula at many points ({!first_time} scans whole runs). *)

val common : Universe.t -> t -> Universe.point -> bool
(** Common knowledge [C φ] between sender and receiver, computed
    exactly on the finite universe as the greatest fixpoint of
    [ψ ↦ φ ∧ K_S ψ ∧ K_R ψ] (the standard finite-model construction:
    [C φ] holds at a point iff φ holds everywhere in the point's
    connected component under [~_S ∪ ~_R]).  E11 checks that
    [C(|Y| ≥ 1)] holds {e nowhere} in its universes even though every
    finite [K]-chain is eventually attained — the ladder climbs
    forever and its limit never arrives. *)

val first_time : Universe.t -> run:int -> t -> int option
(** Earliest time in the run at which the formula holds, scanned
    forward over a {!tabulate} table (one class sweep per [Knows]
    level, whatever the scan length).  Nested knowledge of stable
    facts is itself stable under the complete-history
    interpretation, so this is well-defined for the formulas the
    experiments use (no stability is assumed by the search). *)

val pp : Format.formatter -> t -> unit
