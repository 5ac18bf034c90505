module Chan = Channel.Chan
module Global = Kernel.Global
module Move = Kernel.Move
module Sim = Kernel.Sim
module Bfs = Kernel.Bfs
module Protocol = Kernel.Protocol
module Symm = Kernel.Symm
module Xset = Seqspace.Xset
module IntSet = Set.Make (Int)

type joint_move = Sync of Move.t | Only1 of Move.t | Only2 of Move.t

let run_debt (g : Global.t) = Chan.debt g.Global.chan_sr + Chan.debt g.Global.chan_rs

(* [a] with room for index [i]; new slots hold [fill]. *)
let extend a i fill =
  if i < Array.length a then a else Array.append a (Array.make (max 64 (i + 1)) fill)

type kind = Safety of { violated_run : int } | Starvation of { starved_run : int }

type witness = {
  x1 : int list;
  x2 : int list;
  kind : kind;
  joint_moves : joint_move list;
  depth : int;
  states_explored : int;
}

type outcome =
  | Witness of witness
  | No_violation of { closed : bool; states_explored : int }

(* A per-input single-run transition store.  Every joint move
   decomposes into [Sim.apply] calls on one run, and a run's successor
   under a move depends only on its own state — not on which pair the
   search happens to be exploring.  So an all-pairs sweep over α(m)
   inputs can compute each (state, move) successor once per *input*
   and share it across the α(m)−1 pairs that input participates in,
   instead of recomputing it per pair.

   Store ids are interned [Global.emit_run_key] keys: the state
   fingerprint refined with the channel counters and the safety bit —
   every observable an engine decision reads.  That key is closed
   under stepping (histories and the clock, the only excluded fields,
   are write-only accumulators that never feed back into evolution),
   so memoising on [(parent key id, move)] returns a successor that
   is behaviourally interchangeable with the one a fresh [Sim.apply]
   would build, for this pair and every other: joint keys, safety
   checks, cap checks, and the starvation analysis all read through
   the key.  Note a plain fingerprint would NOT be a sound memo key —
   it quotients away the send counters that the cap checks observe.
   The store is keyed by the input value as well: protocols may close
   over their input tape (the census families do), so equal keys
   under different inputs are not interchangeable and stores are
   never shared across inputs.

   Per store id the store keeps the state, its [Global.emit]
   fingerprint id — interned once, when the id is new, so the joint
   search keys a state pair with two array reads — and a row of
   memoised successor ids, so a memo hit returns an id and allocates
   nothing.

   The store is mutex-guarded so the parallel pair sweep can share it
   across domains; at the default [jobs = 1] the lock is uncontended
   and costs a few nanoseconds per hit.  Cached [Global.t] values are
   shared freely: they are persistent, and their lazily-memoised
   component encodings are write-once with equal values on every
   writer. *)
module Runstate = struct
  type t = {
    p : Protocol.t;
    keys : Stdx.Intern.t;  (* run-key bytes → store id *)
    prints : Stdx.Intern.t;  (* fingerprint bytes → fingerprint id *)
    scratch : Stdx.Codec.t;
    stride : int;
        (* distinct move codes for this protocol's alphabets: the memo
           row of store id [i] is [succ.(i * stride + code)] *)
    lock : Mutex.t;
    (* Store id → state and store id → fingerprint id.  Slots are
       written once, under [lock], before their id is handed out; a
       full array is copied into a larger one, also under [lock], and
       published through the [Atomic.t].  So {!state} and
       {!fingerprint} read without the lock, from any domain: the
       caller learnt the id from a locked [apply] (or it is 0, written
       in [create]), which orders the slot write before the read, and
       any array the [Atomic.get] returns holds the slot — the one it
       was written to or a later copy published after it. *)
    states : Global.t array Atomic.t;
    prints_of : int array Atomic.t;
    mutable succ : int array;
        (* successor store id, [rejected] for a move the simulator
           refuses ([Sim.Model_violation]), [unknown] until computed *)
    mutable hits : int;  (* cache hits — the work the sweep shares *)
  }

  let rejected = -1
  let unknown = -2

  (* Every move a search can feed the store, numbered densely: message
     values are bounded by the declared alphabets ([validate_action]
     enforces this), so the code space has a fixed stride per state. *)
  let move_code (p : Protocol.t) move =
    let sa = p.Protocol.sender_alphabet and ra = p.Protocol.receiver_alphabet in
    match move with
    | Move.Wake_sender -> 0
    | Move.Wake_receiver -> 1
    | Move.Restart_sender -> 2
    | Move.Restart_receiver -> 3
    | Move.Deliver_to_receiver m -> 4 + m
    | Move.Drop_to_receiver m -> 4 + sa + m
    | Move.Deliver_to_sender m -> 4 + (2 * sa) + m
    | Move.Drop_to_sender m -> 4 + (2 * sa) + ra + m
    (* Corruption happens at search roots, never as a searched
       transition, so no caller ever feeds these here. *)
    | Move.Corrupt_sender _ | Move.Corrupt_receiver _ ->
        invalid_arg "Runstate: corrupt-state moves are roots, not transitions"

  let intern_emitted table scratch emit g =
    Stdx.Codec.reset scratch;
    emit scratch g;
    Stdx.Intern.intern_bytes table (Stdx.Codec.buffer scratch) ~pos:0
      ~len:(Stdx.Codec.length scratch)

  (* The store id of [g], interning it — with its fingerprint id and an
     empty memo row — when new.  Caller holds [lock]. *)
  let sid t g =
    let id, fresh = intern_emitted t.keys t.scratch Global.emit_run_key g in
    if fresh then begin
      let print = fst (intern_emitted t.prints t.scratch Global.emit g) in
      let states = extend (Atomic.get t.states) id g in
      let prints_of = extend (Atomic.get t.prints_of) id 0 in
      states.(id) <- g;
      prints_of.(id) <- print;
      Atomic.set t.states states;
      Atomic.set t.prints_of prints_of;
      t.succ <- extend t.succ (((id + 1) * t.stride) - 1) unknown
    end;
    id

  let create p ~x =
    let t =
      {
        p;
        keys = Stdx.Intern.create ~size:64 ();
        prints = Stdx.Intern.create ~size:64 ();
        scratch = Stdx.Codec.create ~size:256 ();
        stride = 4 + (2 * (p.Protocol.sender_alphabet + p.Protocol.receiver_alphabet));
        lock = Mutex.create ();
        states = Atomic.make [||];
        prints_of = Atomic.make [||];
        succ = [||];
        hits = 0;
      }
    in
    ignore (sid t (Global.initial p ~input:(Array.of_list x)) : int);
    t

  (* Lock-free: see [states] and [prints_of] in the type. *)
  let state t id = (Atomic.get t.states).(id)
  let fingerprint t id = (Atomic.get t.prints_of).(id)

  let apply t id move =
    let k = (id * t.stride) + move_code t.p move in
    Mutex.lock t.lock;
    let r = t.succ.(k) in
    if r <> unknown then begin
      t.hits <- t.hits + 1;
      Mutex.unlock t.lock;
      r
    end
    else
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.lock)
        (fun () ->
          let r =
            match Sim.apply t.p (state t id) move with
            | exception Sim.Model_violation _ -> rejected
            | g' -> sid t g'
          in
          t.succ.(k) <- r;
          r)

  (* Counters read without the lock: exact once every search sharing
     the store has returned ([Par.map] joins its domains first), a
     lower bound while one still runs. *)
  let states t = Stdx.Intern.length t.keys

  let hits t = t.hits
end

(* Lifetime resource counters for a search or sweep.  The peaks are
   budget-invariant — a spilled frontier queues exactly the bytes an
   unbounded one does, and the joint table never depends on where the
   frontier lives — so they are safe to surface in reports that must
   stay byte-identical across [mem_budget_bytes] settings.  The spill
   counters ([peak_resident_bytes], [spilled_bytes], [spill_chunks])
   are budget-*variant* by design: they are what E16 and the smoke
   targets assert against the budget, and they stay out of report IR.
   The accumulator is mutex-guarded because [search] merges into it
   from every domain of the parallel pair sweep. *)
module Stats = struct
  type snapshot = {
    peak_frontier_bytes : int;
    peak_frontier_len : int;
    peak_resident_bytes : int;
    spilled_bytes : int;
    spill_chunks : int;
    peak_joint_states : int;
  }

  type t = { lock : Mutex.t; mutable s : snapshot }

  let create () =
    {
      lock = Mutex.create ();
      s =
        {
          peak_frontier_bytes = 0;
          peak_frontier_len = 0;
          peak_resident_bytes = 0;
          spilled_bytes = 0;
          spill_chunks = 0;
          peak_joint_states = 0;
        };
    }

  (* Per-search peaks max-merge (the sweep-wide peak is the worst
     single search); spill volumes sum (total I/O the sweep did). *)
  let note t (fs : Stdx.Frontier.stats) ~joint_states =
    Mutex.lock t.lock;
    let s = t.s in
    t.s <-
      {
        peak_frontier_bytes = max s.peak_frontier_bytes fs.Stdx.Frontier.peak_bytes;
        peak_frontier_len = max s.peak_frontier_len fs.Stdx.Frontier.peak_len;
        peak_resident_bytes =
          max s.peak_resident_bytes fs.Stdx.Frontier.peak_resident_bytes;
        spilled_bytes = s.spilled_bytes + fs.Stdx.Frontier.spilled_bytes;
        spill_chunks = s.spill_chunks + fs.Stdx.Frontier.spill_chunks;
        peak_joint_states = max s.peak_joint_states joint_states;
      };
    Mutex.unlock t.lock

  let snapshot t =
    Mutex.lock t.lock;
    let s = t.s in
    Mutex.unlock t.lock;
    s

  (* The frontier block every engine writes around its loop: on every
     exit path, exceptions included, note the counters and release the
     spill file. *)
  let with_frontier ?mem_budget_bytes ?stats ~states f =
    let frontier = Stdx.Frontier.create ?mem_budget_bytes () in
    Fun.protect
      ~finally:(fun () ->
        Option.iter
          (fun s -> note s (Stdx.Frontier.stats frontier) ~joint_states:(states ()))
          stats;
        Stdx.Frontier.close frontier)
      (fun () -> f frontier)
end

(* Both arguments ascending (the [Chan.deliverable] contract): a
   sorted merge instead of the quadratic [List.mem] scan. *)
let intersect xs ys =
  let rec go xs ys =
    match (xs, ys) with
    | [], _ | _, [] -> []
    | x :: xs', y :: ys' ->
        if x = y then x :: go xs' ys' else if x < y then go xs' ys else go xs ys'
  in
  go xs ys

(* Candidate joint moves from a joint state.  Receiver-visible moves
   are synchronised; sender-side moves act on one run. *)
let expansions ~allow_drops ~send_cap ~recv_cap (g1 : Global.t) (g2 : Global.t) =
  (* The receiver acts identically in both runs, so capping its sends
     by run 1's reverse-channel total caps both. *)
  let wake_r =
    if Chan.sent_total g1.Global.chan_rs < recv_cap then [ Sync Move.Wake_receiver ] else []
  in
  let sync =
    wake_r
    @ List.map
         (fun m -> Sync (Move.Deliver_to_receiver m))
         (intersect (Chan.deliverable g1.Global.chan_sr) (Chan.deliverable g2.Global.chan_sr))
  in
  let side tag (g : Global.t) =
    let wake =
      if Chan.sent_total g.Global.chan_sr < send_cap then [ tag Move.Wake_sender ] else []
    in
    let acks = List.map (fun m -> tag (Move.Deliver_to_sender m)) (Chan.deliverable g.Global.chan_rs) in
    let drops =
      if allow_drops then
        List.map (fun m -> tag (Move.Drop_to_receiver m)) (Chan.droppable g.Global.chan_sr)
        @ List.map (fun m -> tag (Move.Drop_to_sender m)) (Chan.droppable g.Global.chan_rs)
      else []
    in
    wake @ acks @ drops
  in
  sync @ side (fun m -> Only1 m) g1 @ side (fun m -> Only2 m) g2

(* Starvation analysis over a *closed* joint graph.

   A component (SCC) of the joint graph certifies starvation of run i
   when the adversary can cycle in it forever while remaining fair to
   run i, with the output tape — constant across any cycle — leaving
   run i incomplete.  Fairness of the projected run i requires, within
   the component:
   - an [Only_i Wake_sender] edge and a [Sync Wake_receiver] edge
     (both processes keep taking steps);
   - on duplication channels: a [Sync (Deliver_to_receiver μ)] edge
     for every μ the run-i forward channel holds (the set is constant
     across the component) and an [Only_i (Deliver_to_sender μ)] edge
     for every μ its reverse channel holds — every send keeps being
     matched by deliveries (Property 1c);
   - on deleting channels: a state in the component where run i's
     channels are empty (everything sent was delivered).

   Drop edges are excluded from the graph before the component
   analysis: a fair cycle must not owe its progress to the adversary
   eating messages, and the adversary is free never to play them. *)
module Starved = struct
  (* The closed joint graph, recorded as the BFS expands ids — in
     admission order, since the frontier is FIFO: per id its runs'
     store ids, and its out-edges minus drops, id [i]'s at
     [first.(i), first.(i + 1)). *)
  type graph = {
    mutable n : int;  (* recorded ids are exactly [0, n) *)
    mutable sid1 : int array;
    mutable sid2 : int array;
    mutable first : int array;
    mutable m : int;  (* recorded edges *)
    mutable dst : int array;
    mutable label : joint_move array;
  }

  let graph () =
    { n = 0; sid1 = [||]; sid2 = [||]; first = [| 0 |]; m = 0; dst = [||]; label = [||] }

  let vertex g id s1 s2 =
    if id <> g.n then invalid_arg "Starved.vertex: ids must come in admission order";
    g.sid1 <- extend g.sid1 id 0;
    g.sid2 <- extend g.sid2 id 0;
    g.first <- extend g.first (id + 1) 0;
    g.sid1.(id) <- s1;
    g.sid2.(id) <- s2;
    g.first.(id + 1) <- g.m;
    g.n <- id + 1

  let is_drop = function
    | Sync m | Only1 m | Only2 m -> (
        match m with
        | Move.Drop_to_receiver _ | Move.Drop_to_sender _ -> true
        | Move.Wake_sender | Move.Wake_receiver | Move.Deliver_to_receiver _
        | Move.Deliver_to_sender _ | Move.Restart_sender | Move.Restart_receiver
        | Move.Corrupt_sender _ | Move.Corrupt_receiver _ ->
            false)

  (* An out-edge of the id last passed to [vertex]. *)
  let edge g jm dst =
    if not (is_drop jm) then begin
      g.dst <- extend g.dst g.m 0;
      g.label <- extend g.label g.m jm;
      g.dst.(g.m) <- dst;
      g.label.(g.m) <- jm;
      g.m <- g.m + 1;
      g.first.(g.n) <- g.m
    end

  type comp_stats = {
    mutable wake1 : bool;
    mutable wake2 : bool;
    mutable wake_r : bool;
    mutable sync_dlv : IntSet.t;
    mutable ack1 : IntSet.t;
    mutable ack2 : IntSet.t;
    mutable has_edge : bool;
    mutable rep : int;  (* the earliest-admitted id, -1 before any *)
    mutable debt0_1 : int;  (* the earliest with run-1 channels empty *)
    mutable debt0_2 : int;
  }

  let fresh_stats () =
    {
      wake1 = false;
      wake2 = false;
      wake_r = false;
      sync_dlv = IntSet.empty;
      ack1 = IntSet.empty;
      ack2 = IntSet.empty;
      has_edge = false;
      rep = -1;
      debt0_1 = -1;
      debt0_2 = -1;
    }

  (* Iterative Tarjan SCC over the recorded graph, from vertex 0 (the
     root) up.  The on-stack flags live in a bit-packed set rather than
     a [bool array] — one bit per vertex instead of a byte, and the GC
     never scans it. *)
  let tarjan g =
    let n = g.n in
    let index = Array.make n (-1) in
    let lowlink = Array.make n 0 in
    let on_stack = Stdx.Bitset.create ~size:(max 1 n) () in
    let comp = Array.make n (-1) in
    let stack = ref [] in
    let next_index = ref 0 in
    let next_comp = ref 0 in
    let strongconnect v =
      (* Explicit work stack: (vertex, its next edge). *)
      let work = Stack.create () in
      Stack.push (v, g.first.(v)) work;
      index.(v) <- !next_index;
      lowlink.(v) <- !next_index;
      incr next_index;
      stack := v :: !stack;
      ignore (Stdx.Bitset.add on_stack v : bool);
      while not (Stack.is_empty work) do
        let u, e = Stack.pop work in
        if e < g.first.(u + 1) then begin
          Stack.push (u, e + 1) work;
          let w = g.dst.(e) in
          if index.(w) = -1 then begin
            index.(w) <- !next_index;
            lowlink.(w) <- !next_index;
            incr next_index;
            stack := w :: !stack;
            ignore (Stdx.Bitset.add on_stack w : bool);
            Stack.push (w, g.first.(w)) work
          end
          else if Stdx.Bitset.mem on_stack w then
            lowlink.(u) <- min lowlink.(u) index.(w)
        end
        else begin
          if lowlink.(u) = index.(u) then begin
            let rec pop () =
              match !stack with
              | [] -> ()
              | w :: rest ->
                  stack := rest;
                  Stdx.Bitset.remove on_stack w;
                  comp.(w) <- !next_comp;
                  if w <> u then pop ()
            in
            pop ();
            incr next_comp
          end;
          match Stack.top_opt work with
          | Some (parent, _) -> lowlink.(parent) <- min lowlink.(parent) lowlink.(u)
          | None -> ()
        end
      done
    in
    for v = 0 to n - 1 do
      if index.(v) = -1 then strongconnect v
    done;
    (comp, !next_comp)

  (* The witness is deterministic: the first qualifying component in
     Tarjan order from the root, and in it the earliest-admitted
     qualifying id — the component's first id (dup channels), or its
     first id with the starved run's channels empty (deleting
     channels). *)
  let find g ~state1 ~state2 ~channel =
    let comp, n_comps = tarjan g in
    let stats = Array.init n_comps (fun _ -> fresh_stats ()) in
    for u = 0 to g.n - 1 do
      let cu = comp.(u) in
      let s = stats.(cu) in
      if s.rep < 0 then s.rep <- u;
      if s.debt0_1 < 0 && run_debt (state1 g.sid1.(u)) = 0 then s.debt0_1 <- u;
      if s.debt0_2 < 0 && run_debt (state2 g.sid2.(u)) = 0 then s.debt0_2 <- u;
      (* Intra-component edge statistics. *)
      for e = g.first.(u) to g.first.(u + 1) - 1 do
        if comp.(g.dst.(e)) = cu then begin
          s.has_edge <- true;
          match g.label.(e) with
          | Only1 Move.Wake_sender -> s.wake1 <- true
          | Only2 Move.Wake_sender -> s.wake2 <- true
          | Sync Move.Wake_receiver -> s.wake_r <- true
          | Sync (Move.Deliver_to_receiver m) -> s.sync_dlv <- IntSet.add m s.sync_dlv
          | Only1 (Move.Deliver_to_sender m) -> s.ack1 <- IntSet.add m s.ack1
          | Only2 (Move.Deliver_to_sender m) -> s.ack2 <- IntSet.add m s.ack2
          | _ -> ()
        end
      done
    done;
    let dup = Chan.duplicates channel in
    let check s which =
      let g, wake_i, acks_i, debt0_i =
        if which = 1 then (state1 g.sid1.(s.rep), s.wake1, s.ack1, s.debt0_1)
        else (state2 g.sid2.(s.rep), s.wake2, s.ack2, s.debt0_2)
      in
      if (not s.has_edge) || Global.complete g || (not wake_i) || not s.wake_r then None
      else if dup then begin
        let fwd_ok =
          List.for_all (fun m -> IntSet.mem m s.sync_dlv) (Chan.deliverable g.Global.chan_sr)
        in
        let rev_ok =
          List.for_all (fun m -> IntSet.mem m acks_i) (Chan.deliverable g.Global.chan_rs)
        in
        if fwd_ok && rev_ok then Some (s.rep, which) else None
      end
      else if debt0_i >= 0 then Some (debt0_i, which)
      else None
    in
    Array.find_map (fun s -> match check s 1 with Some r -> Some r | None -> check s 2) stats
end

let is_prefix = Xset.is_prefix

let search_pair_raw (p : Protocol.t) ~x1 ~x2 ?(depth = 64) ?(max_states = 200_000)
    ?allow_drops ?(max_sends_per_sender = 24) ?(max_sends_per_receiver = 24) ?max_seconds
    ?runstates ?mem_budget_bytes ?stats () =
  let allow_drops =
    match allow_drops with Some b -> b | None -> Chan.deletes p.Protocol.channel
  in
  let over_deadline = Stdx.Clock.deadline max_seconds in
  let rs1, rs2 =
    match runstates with
    | Some rr -> rr
    | None -> (Runstate.create p ~x:x1, Runstate.create p ~x:x2)
  in
  (* A joint state is held as its runs' store ids and keyed by their
     fingerprint ids — two array reads, no state emitted.  The key is
     what the joint semantics compare (the runs' [Global.emit]
     fingerprints); the first pair admitted under a key stands for
     every pair with those fingerprints. *)
  let table =
    Bfs.create ~max_states
      ~emit:(fun c (s1, s2) ->
        Stdx.Codec.add_varint c (Runstate.fingerprint rs1 s1);
        Stdx.Codec.add_varint c (Runstate.fingerprint rs2 s2))
      ()
  in
  let graph = Starved.graph () in
  Stats.with_frontier ?mem_budget_bytes ?stats ~states:(fun () -> Bfs.length table)
  @@ fun frontier ->
  let violated_run = ref 0 in
  let unsafe rs s = not (Global.safety_ok (Runstate.state rs s)) in
  (* Each side steps through the shared per-x store, so the [Sim.apply]
     under this (state, move) runs once per input across the whole
     sweep; an [Only1]/[Only2] move keeps the other side's store id.  A
     simulator-rejected move skips the joint move. *)
  let step _ (s1, s2) jm =
    let s2' = match jm with Sync m | Only2 m -> Runstate.apply rs2 s2 m | Only1 _ -> s2 in
    let s1' =
      if s2' = Runstate.rejected then Runstate.rejected
      else match jm with Sync m | Only1 m -> Runstate.apply rs1 s1 m | Only2 _ -> s1
    in
    if s1' = Runstate.rejected then None else Some (s1', s2')
  in
  (* Each store's initial state is its id 0. *)
  let outcome =
    Bfs.run table frontier ~roots:[ (0, 0) ] ~depth ~deadline:over_deadline
      ~admitted:(fun _ (s1, s2) ->
        violated_run := if unsafe rs1 s1 then 1 else if unsafe rs2 s2 then 2 else 0;
        !violated_run > 0)
      ~moves:(fun id (s1, s2) ->
        Starved.vertex graph id s1 s2;
        expansions ~allow_drops ~send_cap:max_sends_per_sender ~recv_cap:max_sends_per_receiver
          (Runstate.state rs1 s1) (Runstate.state rs2 s2))
      ~on_edge:(fun _ jm id' -> Starved.edge graph jm id')
      ~step ()
  in
  let states_explored = Bfs.length table in
  let witness id kind =
    let moves = snd (Bfs.path table id) in
    Witness { x1; x2; kind; joint_moves = moves; depth = List.length moves; states_explored }
  in
  match outcome with
  | Bfs.Found id -> witness id (Safety { violated_run = !violated_run })
  | Bfs.Exhausted { closed = false } -> No_violation { closed = false; states_explored }
  | Bfs.Exhausted { closed = true } -> (
      (* The joint space is exhausted with no safety violation, so no
         reachable joint output passes the common prefix.  Look for a
         starvation witness: a cycle the adversary can spin forever
         that is *fair* for one run — its sender and the receiver keep
         being scheduled and everything it sends keeps being delivered
         — while the (frozen) output leaves that run incomplete.
         Projected on that run, the lasso is a fair run violating
         liveness.  Every id of the closed graph was expanded, so its
         recorded edges are its full (non-drop) successor list — no
         second [Sim.apply] sweep. *)
      match
        Starved.find graph ~state1:(Runstate.state rs1) ~state2:(Runstate.state rs2)
          ~channel:p.Protocol.channel
      with
      | Some (id, starved_run) -> witness id (Starvation { starved_run })
      | None -> No_violation { closed = true; states_explored })

(* --- The symmetry quotient -------------------------------------------

   For a protocol declaring an {!Symm.equivariance}, relabelling the
   data alphabet by a permutation π maps the whole transition system on
   input(s) X onto the system on π(X): same shape, same state counts,
   same witnesses with message values mapped through the protocol's
   lifts.  So a search on the orbit's canonical representative (the
   first-occurrence relabelling, see {!Symm}) answers for every member:
   run the canonical search, then translate any witness path back
   through π⁻¹.  [No_violation] outcomes carry no symbols and
   [states_explored] is π-invariant, so they pass through unchanged. *)

(* Smallest alphabet covering every symbol that occurs — permutations
   of symbols no input mentions cannot affect any run. *)
let infer_m xss =
  List.fold_left (List.fold_left (fun acc s -> max acc (s + 1))) 0 xss

let relabel_joint eq f = function
  | Sync m -> Sync (Symm.relabel_move eq f m)
  | Only1 m -> Only1 (Symm.relabel_move eq f m)
  | Only2 m -> Only2 (Symm.relabel_move eq f m)

(* Translate the canonical representative's outcome back to the orbit
   member [(x1, x2)] whose canonicalising permutation was [pi]. *)
let relabel_outcome eq pi ~x1 ~x2 = function
  | No_violation _ as o -> o
  | Witness w ->
      let f = Symm.apply (Symm.invert pi) in
      Witness { w with x1; x2; joint_moves = List.map (relabel_joint eq f) w.joint_moves }

(* --- The swap quotient -----------------------------------------------

   The joint system is symmetric under exchanging its two runs: the
   map [(s1, s2) ↦ (s2, s1)] carries the initial joint state of
   [J(x1, x2)] to that of [J(x2, x1)] and is a bijection on joint
   moves — [Sync] moves are self-corresponding (the deliverable
   intersection is commutative, and the receiver-send cap reads run
   1's reverse-channel total, which equals run 2's because the
   synchronised deterministic receiver sends identically in both
   runs), while [Only1]/[Only2] moves trade places.  Safety and
   fairness conditions are exchanged with the run index.  So a search
   of [J(x2, x1)] answers for [(x1, x2)]: mirror the witness — swap
   the inputs, flip the [Only] tags, flip the violated/starved run —
   and, because the reachable joint sets biject, closed and truncated
   [No_violation] outcomes (and their state counts) pass through
   unchanged.  Composed with the alphabet quotient this halves the
   representatives for orbits that are not swap-self-symmetric. *)

let mirror_joint = function
  | Sync m -> Sync m
  | Only1 m -> Only2 m
  | Only2 m -> Only1 m

let mirror_outcome = function
  | No_violation _ as o -> o
  | Witness w ->
      let kind =
        match w.kind with
        | Safety { violated_run } -> Safety { violated_run = 3 - violated_run }
        | Starvation { starved_run } -> Starvation { starved_run = 3 - starved_run }
      in
      Witness
        {
          w with
          x1 = w.x2;
          x2 = w.x1;
          kind;
          joint_moves = List.map mirror_joint w.joint_moves;
        }

(* Canonical form for the composed group (alphabet permutations ×
   run swap): the smaller of the two orderings' alphabet-canonical
   images.  Each [Symm.canon_pair] is invariant on its π-orbit, so the
   minimum is invariant on the whole composed orbit.  [swapped] tells
   the caller the representative searches [(x2, x1)]'s image, so its
   outcome must be mirrored after relabelling. *)
let canon_pair_swap ~m x1 x2 =
  let ck, pi = Symm.canon_pair ~m x1 x2 in
  let cks, pis = Symm.canon_pair ~m x2 x1 in
  if compare cks ck < 0 then (cks, pis, true) else (ck, pi, false)

let search_pair (p : Protocol.t) ~x1 ~x2 ?depth ?max_states ?allow_drops
    ?max_sends_per_sender ?max_sends_per_receiver ?max_seconds ?runstates
    ?mem_budget_bytes ?stats ?(symm = false) () =
  let quotient =
    (* Caller-supplied stores are tied to the literal inputs, so the
       canonical rewrite only applies to self-contained searches
       ({!search} canonicalises before building its shared stores). *)
    match (runstates, if symm then p.Protocol.symmetry else None) with
    | None, Some eq -> Some eq
    | _ -> None
  in
  match quotient with
  | None ->
      search_pair_raw p ~x1 ~x2 ?depth ?max_states ?allow_drops ?max_sends_per_sender
        ?max_sends_per_receiver ?max_seconds ?runstates ?mem_budget_bytes ?stats ()
  | Some eq ->
      let m = infer_m [ x1; x2 ] in
      let (cx1, cx2), pi = Symm.canon_pair ~m x1 x2 in
      search_pair_raw p ~x1:cx1 ~x2:cx2 ?depth ?max_states ?allow_drops
        ?max_sends_per_sender ?max_sends_per_receiver ?max_seconds ?mem_budget_bytes
        ?stats ()
      |> relabel_outcome eq pi ~x1 ~x2

let search_single (p : Protocol.t) ~x ?(depth = 64) ?(max_states = 200_000) ?allow_drops
    ?(max_sends_per_sender = 24) ?(max_sends_per_receiver = 24) ?max_seconds
    ?mem_budget_bytes ?stats ?(symm = false) () =
  (* Under the quotient, search the canonical relabelling of [x] and
     translate any witness back. *)
  let x, relabel =
    match (if symm then p.Protocol.symmetry else None) with
    | None -> (x, Fun.id)
    | Some eq ->
        let cx, pi = Symm.canon_seq ~m:(infer_m [ x ]) x in
        (cx, relabel_outcome eq pi ~x1:x ~x2:x)
  in
  let allow_drops =
    match allow_drops with Some b -> b | None -> Chan.deletes p.Protocol.channel
  in
  let keep = Bfs.move_filter ~allow_drops ~max_sends_per_sender ~max_sends_per_receiver in
  let over_deadline = Stdx.Clock.deadline max_seconds in
  let table = Bfs.create ~emit:Global.emit ~max_states () in
  Stats.with_frontier ?mem_budget_bytes ?stats ~states:(fun () -> Bfs.length table)
  @@ fun frontier ->
  let outcome =
    Bfs.run table frontier
      ~roots:[ Global.initial p ~input:(Array.of_list x) ]
      ~depth ~deadline:over_deadline ~admitted:(fun _ g -> not (Global.safety_ok g))
      ~moves:(fun _ g -> Sim.enabled p g)
      ~step:(fun _ g move -> if keep g move then Some (Sim.apply p g move) else None)
      ()
  in
  let states_explored = Bfs.length table in
  relabel
    (match outcome with
    | Bfs.Found id ->
        let moves = List.map (fun m -> Only1 m) (snd (Bfs.path table id)) in
        Witness
          {
            x1 = x;
            x2 = x;
            kind = Safety { violated_run = 1 };
            joint_moves = moves;
            depth = List.length moves;
            states_explored;
          }
    | Bfs.Exhausted { closed } -> No_violation { closed; states_explored })

let eligible_pairs ~xs =
  let rec pairs = function
    | [] -> []
    | x :: rest ->
        List.filter_map
          (fun y -> if is_prefix x y || is_prefix y x then None else Some (x, y))
          rest
        @ pairs rest
  in
  pairs xs

let search p ~xs ?depth ?max_states ?allow_drops ?max_sends_per_sender
    ?max_sends_per_receiver ?max_seconds ?jobs ?mem_budget_bytes ?stats ?(symm = false)
    ?(swap_symm = true) () =
  let all_pairs = eligible_pairs ~xs in
  (* One transition store per distinct input, built up front and
     shared by every pair that input participates in: the α(m)² sweep
     computes each single-run (state, move) successor once per input
     instead of once per pair.  The stores are mutex-guarded, so the
     pair searches stay embarrassingly parallel — disjoint joint
     tables, shared read-mostly caches.  Par.map preserves order, so
     the outcome list and the first witness are identical at any job
     count. *)
  let stores : (int list, Runstate.t) Hashtbl.t = Hashtbl.create 8 in
  let store x =
    match Hashtbl.find_opt stores x with
    | Some rs -> rs
    | None ->
        let rs = Runstate.create p ~x in
        Hashtbl.add stores x rs;
        rs
  in
  let outcomes =
    match (if symm then p.Protocol.symmetry else None) with
    | None ->
        let tagged = List.map (fun (x1, x2) -> (x1, x2, store x1, store x2)) all_pairs in
        Par.map ?jobs
          (fun (x1, x2, rs1, rs2) ->
            ( x1,
              x2,
              search_pair_raw p ~x1 ~x2 ?depth ?max_states ?allow_drops
                ?max_sends_per_sender ?max_sends_per_receiver ?max_seconds
                ~runstates:(rs1, rs2) ?mem_budget_bytes ?stats () ))
          tagged
    | Some eq ->
        (* Orbit quotient: tag every eligible pair with its canonical
           image and permutation, search only the first occurrence of
           each canonical pair, and expand the representative outcomes
           back over the full pair list in the original order — so the
           report is shaped exactly like the unquotiented sweep's, and
           the saved work is the whole point.  Stores are keyed by
           *canonical* inputs, which also overlap far more than raw
           inputs do.  With [swap_symm] (the default) the quotient
           composes with the run-swap symmetry: both orderings of a
           pair share one representative, and members whose orientation
           lost the canonical race get mirrored outcomes. *)
        let m = infer_m xs in
        let canon x1 x2 =
          if swap_symm then canon_pair_swap ~m x1 x2
          else
            let ckey, pi = Symm.canon_pair ~m x1 x2 in
            (ckey, pi, false)
        in
        let tagged =
          List.map
            (fun (x1, x2) ->
              let ckey, pi, swapped = canon x1 x2 in
              (x1, x2, ckey, pi, swapped))
            all_pairs
        in
        let rep_index : (int list * int list, int) Hashtbl.t = Hashtbl.create 16 in
        let reps = ref [] in
        List.iter
          (fun (_, _, ckey, _, _) ->
            if not (Hashtbl.mem rep_index ckey) then begin
              Hashtbl.add rep_index ckey (Hashtbl.length rep_index);
              reps := ckey :: !reps
            end)
          tagged;
        let rep_tagged =
          List.rev_map (fun ((cx1, cx2) as ck) -> (ck, store cx1, store cx2)) !reps
        in
        let rep_outcomes =
          Array.make (Hashtbl.length rep_index) (No_violation { closed = false; states_explored = 0 })
        in
        List.iter2
          (fun (ck, _, _) o -> rep_outcomes.(Hashtbl.find rep_index ck) <- o)
          rep_tagged
          (Par.map ?jobs
             (fun ((cx1, cx2), rs1, rs2) ->
               search_pair_raw p ~x1:cx1 ~x2:cx2 ?depth ?max_states ?allow_drops
                 ?max_sends_per_sender ?max_sends_per_receiver ?max_seconds
                 ~runstates:(rs1, rs2) ?mem_budget_bytes ?stats ())
             rep_tagged);
        List.map
          (fun (x1, x2, ckey, pi, swapped) ->
            let o = rep_outcomes.(Hashtbl.find rep_index ckey) in
            let o =
              if swapped then
                (* The representative is [(x2, x1)]'s canonical image:
                   relabel back to [(x2, x1)], then mirror the runs. *)
                mirror_outcome (relabel_outcome eq pi ~x1:x2 ~x2:x1 o)
              else relabel_outcome eq pi ~x1 ~x2 o
            in
            (x1, x2, o))
          tagged
  in
  let first_witness =
    List.find_map (function _, _, Witness w -> Some w | _, _, No_violation _ -> None) outcomes
  in
  (outcomes, first_witness)

let run_moves w ~which =
  List.filter_map
    (fun jm ->
      match (jm, which) with
      | Sync m, _ -> Some m
      | Only1 m, 1 -> Some m
      | Only2 m, 2 -> Some m
      | Only1 _, _ | Only2 _, _ -> None)
    w.joint_moves

let pp_joint_move ppf = function
  | Sync m -> Format.fprintf ppf "both: %a" Move.pp m
  | Only1 m -> Format.fprintf ppf "run1: %a" Move.pp m
  | Only2 m -> Format.fprintf ppf "run2: %a" Move.pp m

let pp_witness ppf w =
  let kind_str =
    match w.kind with
    | Safety { violated_run } -> Printf.sprintf "SAFETY violation in run %d" violated_run
    | Starvation { starved_run } -> Printf.sprintf "STARVATION of run %d" starved_run
  in
  Format.fprintf ppf "@[<v>%s after %d joint moves (%d states) for X1=%a X2=%a@,%a@]" kind_str
    w.depth w.states_explored Xset.pp_sequence w.x1 Xset.pp_sequence w.x2
    (Format.pp_print_list pp_joint_move)
    w.joint_moves

let seq_text xs = "<" ^ String.concat " " (List.map string_of_int xs) ^ ">"

let kind_text = function
  | Safety { violated_run } -> Printf.sprintf "safety(run %d)" violated_run
  | Starvation { starved_run } -> Printf.sprintf "starvation(run %d)" starved_run

let witness_item w =
  let module R = Stdx.Report in
  R.Metrics
    {
      title = Some "witness";
      pairs =
        [
          ("kind", R.str (kind_text w.kind));
          ("x1", R.str (seq_text w.x1));
          ("x2", R.str (seq_text w.x2));
          ("depth", R.int w.depth);
          ("states_explored", R.int w.states_explored);
          ("joint_moves", R.int (List.length w.joint_moves));
        ];
    }

let outcome_text = function
  | Witness w -> Printf.sprintf "WITNESS (%s, depth %d)" (kind_text w.kind) w.depth
  | No_violation { closed; states_explored } ->
      Printf.sprintf "none (%s, %d states)"
        (if closed then "space closed" else "truncated")
        states_explored

(* Only the budget-invariant counters go into report IR: artifacts
   must stay byte-identical across [mem_budget_bytes] settings (the
   spill exactness contract E16 and m5-smoke pin with [cmp]).  The
   budget-variant spill counters stay on {!Stats.snapshot} for callers
   that assert against the budget. *)
let stats_item (s : Stats.snapshot) =
  let module R = Stdx.Report in
  R.Metrics
    {
      title = Some "search resources";
      pairs =
        [
          ("peak_frontier_bytes", R.int s.Stats.peak_frontier_bytes);
          ("peak_frontier_len", R.int s.Stats.peak_frontier_len);
          ("peak_joint_states", R.int s.Stats.peak_joint_states);
        ];
    }

let stats_items = function None -> [] | Some s -> [ stats_item (Stats.snapshot s) ]

let outcome_report ~x1 ~x2 ?stats outcome =
  let module R = Stdx.Report in
  let base =
    R.Metrics
      {
        title = None;
        pairs =
          [
            ("x1", R.str (seq_text x1));
            ("x2", R.str (seq_text x2));
            ("outcome", R.str (outcome_text outcome));
          ];
      }
  in
  let items =
    match outcome with Witness w -> [ base; witness_item w ] | No_violation _ -> [ base ]
  in
  R.make ~id:"attack" ~title:"impossibility attack search" (items @ stats_items stats)

let search_report ?stats outcomes witness =
  let module R = Stdx.Report in
  let t =
    R.table ~title:"all-pairs attack sweep"
      [ ("x1", R.Left); ("x2", R.Left); ("outcome", R.Left) ]
  in
  List.iter
    (fun (a, b, o) ->
      R.row t [ R.str (seq_text a); R.str (seq_text b); R.str (outcome_text o) ])
    outcomes;
  let items =
    match witness with Some w -> [ R.finish t; witness_item w ] | None -> [ R.finish t ]
  in
  R.make ~id:"attack" ~title:"impossibility attack search"
    ~notes:
      [
        (match witness with
        | Some _ -> "a witness was found"
        | None -> Printf.sprintf "no witness over %d pairs" (List.length outcomes));
      ]
    (items @ stats_items stats)
