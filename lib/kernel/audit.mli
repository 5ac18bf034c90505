(** Model and fairness audits over finished traces.

    The simulator enforces the hard model invariants online
    ({!Sim.Model_violation}); this module checks the *quantitative*
    properties of §2.2 after the fact, per trace:

    - conservation: on every channel,
      [delivered + dropped + in-flight = sent];
    - no-creation: nothing was delivered that was never sent
      (Property 1's "messages cannot be created by the channel");
    - duplication discipline: deletion/FIFO/perfect channels never
      delivered a message more often than it was sent; duplication
      channels never dropped anything;
    - fairness debt at the end of the run: what a fair continuation
      would still owe (Property 1c for duplication channels, pending
      in-flight copies otherwise).  A completed run may stop with
      positive debt — fairness constrains infinite runs — so the debt
      is reported, not judged.

    These checks are cheap and run over the final channel counters, so
    the harness can afford them on every run. *)

type channel_report = {
  sent : int;
  delivered : int;
  dropped : int;
  in_flight : int;
  conserved : bool;  (** [delivered + dropped + in_flight = sent] *)
  no_creation : bool;  (** per message, deliveries never exceed what duplication allows *)
  discipline : bool;  (** kind-specific: dup never drops, del never over-delivers *)
  debt : int;
}

type t = {
  forward : channel_report;  (** sender → receiver *)
  backward : channel_report;  (** receiver → sender *)
  ok : bool;  (** all boolean checks on both channels *)
}

val run : Trace.t -> t
