(** Hash-consing of state fingerprints into compact integer ids.

    The state-space engines key their tables and queues on canonical
    encodings ({!Kernel.Global.emit} and friends).  Those fingerprints
    are long — they embed marshalled process states — so using them
    directly as hash keys means every lookup re-hashes the whole
    fingerprint and every comparison walks it.  An [Intern.t] assigns
    each distinct fingerprint a dense id ([0, 1, 2, …] in first-seen
    order); the searches then work over ints (or pairs of ints for
    joint states), touching the fingerprint bytes exactly once per
    distinct state.

    The hot entry point is {!intern_bytes}: the engine emits each
    generated state into a reusable {!Codec} buffer and interns the
    byte range in place — an already-seen state (the common case in a
    saturating BFS) costs one hash and one compare with no allocation;
    only a genuinely fresh state copies the range out to a stored
    string.  Both the hash and the compare take eight bytes per step
    (unaligned 64-bit loads, so any [pos] works) and the tail bytes
    singly; the compare only runs once the stored key's cached hash
    has matched.  Ids never depend on the hash.

    Ids are stable until the table is {!clear}ed: interning the same
    fingerprint twice returns the same id, and [name] recovers the
    string (the round-trip the unit tests pin down).  A table is not
    thread-safe; the parallel sweeps in {!Core.Par} keep one table per
    task (or guard a shared one, as {!Core.Attack.Runstate} does). *)

type t

val create : ?size:int -> unit -> t
(** Fresh empty table.  [size] is the initial hash-table capacity
    (default 1024). *)

val intern : t -> string -> int * bool
(** [intern t s] returns [(id, fresh)]: the id for [s], allocating the
    next dense id when [s] is new ([fresh = true]).  The single-lookup
    combination of membership test and id allocation the BFS loops
    want. *)

val intern_bytes : t -> Bytes.t -> pos:int -> len:int -> int * bool
(** [intern_bytes t b ~pos ~len] interns the byte range
    [b[pos, pos+len)] — typically [Codec.buffer c, 0, Codec.length c]
    right after emitting a state.  Equivalent to
    [intern t (Bytes.sub_string b pos len)] but allocates nothing when
    the range was already interned.  The range is only read; the table
    keeps its own copy on a fresh insert.
    @raise Invalid_argument if the range exceeds [b]. *)

val id : t -> string -> int
(** [id t s = fst (intern t s)]. *)

val find_opt : t -> string -> int option
(** The id of [s] if already interned; never allocates. *)

val name : t -> int -> string
(** The string that was assigned this id.
    @raise Invalid_argument if the id was never allocated. *)

val length : t -> int
(** Number of distinct strings interned so far; also the next fresh
    id. *)

val clear : t -> unit
(** Empty the table for reuse, keeping its capacity: the next fresh
    string gets id 0 again, and no earlier string is held. *)
