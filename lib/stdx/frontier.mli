(** Chunked, compactly-encoded FIFO of ints for BFS frontiers, with an
    optional disk-spill mode for out-of-core searches.

    The attack searches queue interned state ids — small ints — and a
    boxed queue spends an order of magnitude more memory on cells and
    tuples than the payload needs.  A [Frontier.t] varint-packs pushed
    ints into fixed-size {!Codec} chunks and recycles each chunk once
    drained (through a bounded free pool), so steady-state BFS traffic
    costs ~1–2 bytes per id and reuses a small rotating pool of buffers
    instead of allocating per node.  FIFO order is preserved exactly;
    the joint searches push and pop ids in pairs via {!push2}/{!pop2}.

    With [mem_budget_bytes] set, the frontier becomes memory-oblivious:
    once keeping another chunk resident would exceed the budget, full
    chunks are appended verbatim to an unlinked temp file and paged
    back in FIFO order on demand.  The pop sequence is bit-identical to
    the unbounded frontier's — spilling changes where bytes live, never
    what they decode to — and {!stats} exposes the counters that let
    callers assert the budget actually held. *)

type t

type stats = {
  peak_bytes : int;
      (** Peak encoded bytes queued at once, resident or spilled.
          Budget-invariant: identical for spilled and in-memory runs. *)
  peak_len : int;
      (** Peak number of ints queued at once.  Budget-invariant. *)
  peak_resident_bytes : int;
      (** Peak in-memory chunk-pool footprint (capacity of the read and
          write chunks plus pending and free resident chunks).  Under a
          budget this stays ≤ [max mem_budget_bytes (2 * chunk
          capacity)] — the read and write chunks are always resident. *)
  spilled_bytes : int;  (** Total bytes ever written to the spill file. *)
  spill_chunks : int;  (** Chunks ever written to the spill file. *)
}

val create : ?chunk_bytes:int -> ?mem_budget_bytes:int -> unit -> t
(** Fresh empty frontier; chunks hold [chunk_bytes] (default 8192)
    bytes of encoded ids before rotating.  [mem_budget_bytes] bounds
    the resident chunk pool: [0] (the default) never spills; any
    positive budget spills full chunks to an unlinked temp file once
    the resident pool would outgrow [max mem_budget_bytes (2 * chunk
    capacity)].  The spill file is opened lazily on first spill and
    needs no fsync — it never has to survive the process. *)

val is_empty : t -> bool

val push : t -> int -> unit

val pop : t -> int
(** Dequeue the oldest int.
    @raise Invalid_argument when empty. *)

val push2 : t -> int -> int -> unit
(** Enqueue a pair (first then second) — the joint-key convenience. *)

val pop2 : t -> int * int
(** Dequeue a pair pushed by {!push2}. *)

val clear : t -> unit
(** Drop all queued ints, keeping the chunk pool (and the spill file
    descriptor, its write offset rewound) for reuse. *)

val close : t -> unit
(** {!clear}, then release the spill file descriptor if one was ever
    opened.  Idempotent; a no-op for frontiers that never spilled.
    Because the file is unlinked at creation, a missed [close] costs an
    fd until process exit, never disk space afterwards. *)

val stats : t -> stats
(** Lifetime counters; see {!type-stats}.  Cheap — a record copy. *)
