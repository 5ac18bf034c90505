module Chan = Channel.Chan
module Global = Kernel.Global
module Move = Kernel.Move
module Sim = Kernel.Sim
module Bfs = Kernel.Bfs
module Protocol = Kernel.Protocol
module Symm = Kernel.Symm
module Xset = Seqspace.Xset

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

(* Moves as ints.  Every move a search can feed a store has a dense
   code below [stride]: message values are bounded by the declared
   alphabets ([validate_action] enforces this), so the code space has
   a fixed stride per protocol.  A joint move is [tag * stride + code]
   with tag 0 = [Sync], 1 = [Only1], 2 = [Only2]; the joint search
   handles only these ints and decodes a path back to [joint_move]s
   for a witness alone. *)
module Code = struct
  type t = {
    stride : int;
    drop_r : int;  (* [Drop_to_receiver m] is [drop_r + m] *)
    deliver_s : int;  (* [Deliver_to_sender m] is [deliver_s + m] *)
    drop_s : int;  (* [Drop_to_sender m] is [drop_s + m] *)
  }

  let wake_sender = 0
  let wake_receiver = 1
  let deliver_r = 4  (* [Deliver_to_receiver m] is [4 + m] *)

  let layout (p : Protocol.t) =
    let sa = p.Protocol.sender_alphabet and ra = p.Protocol.receiver_alphabet in
    {
      stride = 4 + (2 * (sa + ra));
      drop_r = 4 + sa;
      deliver_s = 4 + (2 * sa);
      drop_s = 4 + (2 * sa) + ra;
    }

  let of_move c = function
    | Move.Wake_sender -> wake_sender
    | Move.Wake_receiver -> wake_receiver
    | Move.Restart_sender -> 2
    | Move.Restart_receiver -> 3
    | Move.Deliver_to_receiver m -> deliver_r + m
    | Move.Drop_to_receiver m -> c.drop_r + m
    | Move.Deliver_to_sender m -> c.deliver_s + m
    | Move.Drop_to_sender m -> c.drop_s + m
    (* Corruption happens at search roots, never as a searched
       transition, so no caller ever feeds these here. *)
    | Move.Corrupt_sender _ | Move.Corrupt_receiver _ ->
        invalid_arg "Runstate: corrupt-state moves are roots, not transitions"

  let to_move c k =
    if k = wake_sender then Move.Wake_sender
    else if k = wake_receiver then Move.Wake_receiver
    else if k = 2 then Move.Restart_sender
    else if k = 3 then Move.Restart_receiver
    else if k < c.drop_r then Move.Deliver_to_receiver (k - deliver_r)
    else if k < c.deliver_s then Move.Drop_to_receiver (k - c.drop_r)
    else if k < c.drop_s then Move.Deliver_to_sender (k - c.deliver_s)
    else Move.Drop_to_sender (k - c.drop_s)

  let sync = 0
  let only1 = 1
  let only2 = 2

  let to_joint c j =
    let m = to_move c (j mod c.stride) in
    match j / c.stride with 0 -> Sync m | 1 -> Only1 m | _ -> Only2 m

  let is_drop c j =
    let k = j mod c.stride in
    (k >= c.drop_r && k < c.deliver_s) || k >= c.drop_s
end

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

   Per store id the store keeps the state; its [Global.emit]
   fingerprint id, interned once, when the id is new, so the joint
   search keys a state pair with two array reads; its row, everything
   else the joint search reads of the state; and its memoised
   successor ids, so a memo hit returns an id and allocates nothing.

   The store is mutex-guarded so the parallel pair sweep can share it
   across domains.  At the default [jobs = 1] the lock is uncontended
   but not free: the lock/unlock pair on the hit path was 4.6% of the
   m=4 pair sweep's CPU samples before the joint search stopped
   allocating and 6.9% after (gprofng).  Cached [Global.t] values are
   shared freely: they are persistent, and their lazily-memoised
   component encodings are write-once with equal values on every
   writer. *)
module Runstate = struct
  (* What the joint search reads of a state besides its fingerprint,
     computed once per store id: its move lists, send caps, safety
     check and starvation test then read ints instead of walking the
     channels per joint state. *)
  type row = {
    dlv_sr : int array;  (* [Chan.deliverable] of each channel, ascending *)
    dlv_rs : int array;
    drop_sr : int array;  (* [Chan.droppable], in its order *)
    drop_rs : int array;
    sent_sr : int;  (* [Chan.sent_total] *)
    sent_rs : int;
    safe : bool;  (* [Global.safety_ok] *)
    debt : int;  (* [run_debt] *)
  }

  type t = {
    p : Protocol.t;
    keys : Stdx.Intern.t;  (* run-key bytes → store id *)
    prints : Stdx.Intern.t;  (* fingerprint bytes → fingerprint id *)
    scratch : Stdx.Codec.t;
    code : Code.t;  (* id [i]'s successor under a move is [succ.(i * stride + move code)] *)
    lock : Mutex.t;
    (* Store id → state, fingerprint id and row.  Slots are written
       once, under [lock], before their id is handed out; a full array
       is copied into a larger one, also under [lock], and published
       through the [Atomic.t].  So {!state}, {!fingerprint} and {!row}
       read without the lock, from any domain: the caller learnt the
       id from a locked [apply] (or it is 0, written in [create]),
       which orders the slot write before the read, and any array the
       [Atomic.get] returns holds the slot — the one it was written to
       or a later copy published after it. *)
    states : Global.t array Atomic.t;
    prints_of : int array Atomic.t;
    rows : row array Atomic.t;
    mutable succ : int array;
        (* successor store id, [rejected] for a move the simulator
           refuses ([Sim.Model_violation]), [unknown] until computed *)
    mutable hits : int;  (* cache hits — the work the sweep shares *)
  }

  let rejected = -1
  let unknown = -2

  let row_of (g : Global.t) =
    let sr = g.Global.chan_sr and rs = g.Global.chan_rs in
    {
      dlv_sr = Array.of_list (Chan.deliverable sr);
      dlv_rs = Array.of_list (Chan.deliverable rs);
      drop_sr = Array.of_list (Chan.droppable sr);
      drop_rs = Array.of_list (Chan.droppable rs);
      sent_sr = Chan.sent_total sr;
      sent_rs = Chan.sent_total rs;
      safe = Global.safety_ok g;
      debt = run_debt g;
    }

  let intern_emitted table scratch emit g =
    Stdx.Codec.reset scratch;
    emit scratch g;
    Stdx.Intern.intern_bytes table (Stdx.Codec.buffer scratch) ~pos:0
      ~len:(Stdx.Codec.length scratch)

  (* The store id of [g], interning it — with its fingerprint id, its
     row and an empty memo row — when new.  Caller holds [lock]. *)
  let sid t g =
    let id, fresh = intern_emitted t.keys t.scratch Global.emit_run_key g in
    if fresh then begin
      let print = fst (intern_emitted t.prints t.scratch Global.emit g) in
      let states = extend (Atomic.get t.states) id g in
      let prints_of = extend (Atomic.get t.prints_of) id 0 in
      let row = row_of g in
      let rows = extend (Atomic.get t.rows) id row in
      states.(id) <- g;
      prints_of.(id) <- print;
      rows.(id) <- row;
      Atomic.set t.states states;
      Atomic.set t.prints_of prints_of;
      Atomic.set t.rows rows;
      t.succ <- extend t.succ (((id + 1) * t.code.Code.stride) - 1) unknown
    end;
    id

  let create p ~x =
    let t =
      {
        p;
        keys = Stdx.Intern.create ~size:64 ();
        prints = Stdx.Intern.create ~size:64 ();
        scratch = Stdx.Codec.create ~size:256 ();
        code = Code.layout p;
        lock = Mutex.create ();
        states = Atomic.make [||];
        prints_of = Atomic.make [||];
        rows = Atomic.make [||];
        succ = [||];
        hits = 0;
      }
    in
    ignore (sid t (Global.initial p ~input:(Array.of_list x)) : int);
    t

  (* Lock-free: see [states], [prints_of] and [rows] in the type. *)
  let state t id = (Atomic.get t.states).(id)
  let fingerprint t id = (Atomic.get t.prints_of).(id)
  let row t id = (Atomic.get t.rows).(id)

  (* [apply] on a move code, as the joint search feeds it. *)
  let apply_code t id code =
    let k = (id * t.code.Code.stride) + code in
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
            match Sim.apply t.p (state t id) (Code.to_move t.code code) with
            | exception Sim.Model_violation _ -> rejected
            | g' -> sid t g'
          in
          t.succ.(k) <- r;
          r)

  let apply t id move = apply_code t id (Code.of_move t.code move)

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

(* [base + ms.(k)] for [k = 0 .. i], in that order, onto [acc].  The
   list builders are top-level, so they allocate only the list. *)
let rec cons_upto base ms i acc =
  if i < 0 then acc else cons_upto base ms (i - 1) ((base + ms.(i)) :: acc)

let cons_codes base ms acc = cons_upto base ms (Array.length ms - 1) acc

(* [base + m] for each [m] in both ascending arrays [a.(0 .. i)] and
   [b.(0 .. j)], ascending, onto [acc]. *)
let rec cons_common base a i b j acc =
  if i < 0 || j < 0 then acc
  else
    let x = a.(i) and y = b.(j) in
    if x = y then cons_common base a (i - 1) b (j - 1) ((base + x) :: acc)
    else if x > y then cons_common base a (i - 1) b j acc
    else cons_common base a i b (j - 1) acc

(* One run's sender-side moves under [tag], onto [acc]. *)
let cons_side (c : Code.t) ~allow_drops ~send_cap tag (r : Runstate.row) acc =
  let base = tag * c.Code.stride in
  let acc =
    if allow_drops then
      cons_codes (base + c.Code.drop_r) r.Runstate.drop_sr
        (cons_codes (base + c.Code.drop_s) r.Runstate.drop_rs acc)
    else acc
  in
  let acc = cons_codes (base + c.Code.deliver_s) r.Runstate.dlv_rs acc in
  if r.Runstate.sent_sr < send_cap then (base + Code.wake_sender) :: acc else acc

(* Candidate joint moves from a joint state, as codes, consed from the
   last so the list is built once, in this order:
   - [Sync Wake_receiver], under the receiver cap;
   - [Sync (Deliver_to_receiver m)] for each [m] deliverable in both
     runs, ascending;
   - for run 1, then run 2: its sender's wake under the sender cap, its
     deliveries to the sender, and with drops allowed its drops to the
     receiver and then to the sender.
   Receiver-visible moves are synchronised; sender-side moves act on
   one run.  The order fixes the ids the BFS hands out, and with them
   every witness. *)
let joint_codes c ~allow_drops ~send_cap ~recv_cap (r1 : Runstate.row) (r2 : Runstate.row) =
  let acc =
    cons_side c ~allow_drops ~send_cap Code.only1 r1
      (cons_side c ~allow_drops ~send_cap Code.only2 r2 [])
  in
  let a = r1.Runstate.dlv_sr and b = r2.Runstate.dlv_sr in
  let acc = cons_common Code.deliver_r a (Array.length a - 1) b (Array.length b - 1) acc in
  (* The receiver acts identically in both runs, so capping its sends
     by run 1's reverse-channel total caps both. *)
  if r1.Runstate.sent_rs < recv_cap then Code.wake_receiver :: acc else acc

(* A joint state is one int: run 1's store id in the high bits, run
   2's in the low [half] bits. *)
let half = 31
let low = (1 lsl half) - 1

let pack s1 s2 =
  if s1 lsr half <> 0 || s2 lsr half <> 0 then
    invalid_arg "Attack: a store id does not fit a packed joint state";
  (s1 lsl half) lor s2

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
     store ids, and its out-edges minus drops, labelled with their
     joint-move codes, id [i]'s at [first.(i), first.(i + 1)).  The
     other arrays are the SCC pass's: all of them keep their capacity
     from one search to the next. *)
  type t = {
    mutable n : int;  (* recorded ids are exactly [0, n) *)
    mutable sid1 : int array;
    mutable sid2 : int array;
    mutable first : int array;
    mutable m : int;  (* recorded edges *)
    mutable dst : int array;
    mutable label : int array;
    (* Tarjan's, per id *)
    mutable index : int array;
    mutable lowlink : int array;
    mutable comp : int array;
    mutable work_v : int array;  (* the DFS path: vertex, next edge *)
    mutable work_e : int array;
    mutable stack : int array;
    (* per component *)
    mutable flags : int array;
    mutable rep : int array;  (* the earliest-admitted id *)
    mutable debt0_1 : int array;  (* the earliest with run-1 channels empty, or -1 *)
    mutable debt0_2 : int array;
    sync_dlv : Stdx.Bitset.t;  (* [comp * stride + m]: a [Sync (Deliver_to_receiver m)] edge *)
    ack1 : Stdx.Bitset.t;  (* [comp * stride + m]: an [Only1 (Deliver_to_sender m)] edge *)
    ack2 : Stdx.Bitset.t;
  }

  let create () =
    {
      n = 0;
      sid1 = [||];
      sid2 = [||];
      first = [| 0 |];
      m = 0;
      dst = [||];
      label = [||];
      index = [||];
      lowlink = [||];
      comp = [||];
      work_v = [||];
      work_e = [||];
      stack = [||];
      flags = [||];
      rep = [||];
      debt0_1 = [||];
      debt0_2 = [||];
      sync_dlv = Stdx.Bitset.create ();
      ack1 = Stdx.Bitset.create ();
      ack2 = Stdx.Bitset.create ();
    }

  let clear g =
    g.n <- 0;
    g.m <- 0;
    g.first.(0) <- 0

  let vertex g id s1 s2 =
    if id <> g.n then invalid_arg "Starved.vertex: ids must come in admission order";
    g.sid1 <- extend g.sid1 id 0;
    g.sid2 <- extend g.sid2 id 0;
    g.first <- extend g.first (id + 1) 0;
    g.sid1.(id) <- s1;
    g.sid2.(id) <- s2;
    g.first.(id + 1) <- g.m;
    g.n <- id + 1

  (* An out-edge of the id last passed to [vertex]. *)
  let edge g c jm dst =
    if not (Code.is_drop c jm) then begin
      g.dst <- extend g.dst g.m 0;
      g.label <- extend g.label g.m 0;
      g.dst.(g.m) <- dst;
      g.label.(g.m) <- jm;
      g.m <- g.m + 1;
      g.first.(g.n) <- g.m
    end

  (* Iterative Tarjan SCC over the recorded graph, from vertex 0 (the
     root) up; returns the number of components, numbered in the order
     they complete.  A visited vertex is on the SCC stack exactly while
     it has no component yet, so no on-stack set is kept. *)
  let tarjan g =
    let n = g.n in
    g.index <- extend g.index (n - 1) 0;
    g.lowlink <- extend g.lowlink (n - 1) 0;
    g.comp <- extend g.comp (n - 1) 0;
    g.work_v <- extend g.work_v (n - 1) 0;
    g.work_e <- extend g.work_e (n - 1) 0;
    g.stack <- extend g.stack (n - 1) 0;
    let index = g.index and lowlink = g.lowlink and comp = g.comp in
    let work_v = g.work_v and work_e = g.work_e and stack = g.stack in
    let first = g.first and dst = g.dst in
    Array.fill index 0 n (-1);
    Array.fill comp 0 n (-1);
    let next_index = ref 0 and next_comp = ref 0 in
    let sp = ref 0 (* work stack height *) and top = ref 0 (* SCC stack height *) in
    let visit v =
      index.(v) <- !next_index;
      lowlink.(v) <- !next_index;
      incr next_index;
      stack.(!top) <- v;
      incr top;
      work_v.(!sp) <- v;
      work_e.(!sp) <- first.(v);
      incr sp
    in
    for v = 0 to n - 1 do
      if index.(v) < 0 then begin
        visit v;
        while !sp > 0 do
          let u = work_v.(!sp - 1) and e = work_e.(!sp - 1) in
          if e < first.(u + 1) then begin
            work_e.(!sp - 1) <- e + 1;
            let w = dst.(e) in
            if index.(w) < 0 then visit w
            else if comp.(w) < 0 then lowlink.(u) <- Int.min lowlink.(u) index.(w)
          end
          else begin
            decr sp;
            if lowlink.(u) = index.(u) then begin
              let popping = ref true in
              while !popping do
                decr top;
                let w = stack.(!top) in
                comp.(w) <- !next_comp;
                popping := w <> u
              done;
              incr next_comp
            end;
            if !sp > 0 then begin
              let parent = work_v.(!sp - 1) in
              lowlink.(parent) <- Int.min lowlink.(parent) lowlink.(u)
            end
          end
        done
      end
    done;
    !next_comp

  (* Component flags. *)
  let has_edge = 1
  let wake1 = 2
  let wake2 = 4
  let wake_r = 8

  (* The witness is deterministic: the first qualifying component in
     Tarjan order from the root, and in it the earliest-admitted
     qualifying id — the component's first id (dup channels), or its
     first id with the starved run's channels empty (deleting
     channels). *)
  let find g (c : Code.t) ~row1 ~row2 ~state1 ~state2 ~channel =
    let n_comps = tarjan g in
    g.flags <- extend g.flags (n_comps - 1) 0;
    g.rep <- extend g.rep (n_comps - 1) 0;
    g.debt0_1 <- extend g.debt0_1 (n_comps - 1) 0;
    g.debt0_2 <- extend g.debt0_2 (n_comps - 1) 0;
    Array.fill g.flags 0 n_comps 0;
    Array.fill g.rep 0 n_comps (-1);
    Array.fill g.debt0_1 0 n_comps (-1);
    Array.fill g.debt0_2 0 n_comps (-1);
    Stdx.Bitset.clear g.sync_dlv;
    Stdx.Bitset.clear g.ack1;
    Stdx.Bitset.clear g.ack2;
    let stride = c.Code.stride in
    let comp = g.comp and flags = g.flags in
    for u = 0 to g.n - 1 do
      let cu = comp.(u) in
      if g.rep.(cu) < 0 then g.rep.(cu) <- u;
      if g.debt0_1.(cu) < 0 && (row1 g.sid1.(u)).Runstate.debt = 0 then g.debt0_1.(cu) <- u;
      if g.debt0_2.(cu) < 0 && (row2 g.sid2.(u)).Runstate.debt = 0 then g.debt0_2.(cu) <- u;
      (* Intra-component edge statistics. *)
      for e = g.first.(u) to g.first.(u + 1) - 1 do
        if comp.(g.dst.(e)) = cu then begin
          flags.(cu) <- flags.(cu) lor has_edge;
          let j = g.label.(e) in
          let tag = j / stride in
          let k = j - (tag * stride) in
          if k = Code.wake_sender then begin
            if tag = Code.only1 then flags.(cu) <- flags.(cu) lor wake1
            else if tag = Code.only2 then flags.(cu) <- flags.(cu) lor wake2
          end
          else if tag = Code.sync then begin
            if k = Code.wake_receiver then flags.(cu) <- flags.(cu) lor wake_r
            else if k >= Code.deliver_r && k < c.Code.drop_r then
              ignore (Stdx.Bitset.add g.sync_dlv ((cu * stride) + k - Code.deliver_r) : bool)
          end
          else if k >= c.Code.deliver_s && k < c.Code.drop_s then
            ignore
              (Stdx.Bitset.add
                 (if tag = Code.only1 then g.ack1 else g.ack2)
                 ((cu * stride) + k - c.Code.deliver_s)
                : bool)
        end
      done
    done;
    let dup = Chan.duplicates channel in
    (* The id witnessing run [which]'s starvation in component [cu], or
       -1. *)
    let check cu which =
      let rep = g.rep.(cu) and f = flags.(cu) in
      let s = if which = 1 then g.sid1.(rep) else g.sid2.(rep) in
      if
        f land has_edge = 0
        || f land (if which = 1 then wake1 else wake2) = 0
        || f land wake_r = 0
        || Global.complete ((if which = 1 then state1 else state2) s)
      then -1
      else if dup then begin
        let r = (if which = 1 then row1 else row2) s in
        let acks = if which = 1 then g.ack1 else g.ack2 in
        let all set ms = Array.for_all (fun m -> Stdx.Bitset.mem set ((cu * stride) + m)) ms in
        if all g.sync_dlv r.Runstate.dlv_sr && all acks r.Runstate.dlv_rs then rep else -1
      end
      else (if which = 1 then g.debt0_1 else g.debt0_2).(cu)
    in
    let rec scan cu =
      if cu >= n_comps then None
      else
        let id = check cu 1 in
        if id >= 0 then Some (id, 1)
        else
          let id = check cu 2 in
          if id >= 0 then Some (id, 2) else scan (cu + 1)
    in
    scan 0
end

(* The tables a joint search fills, one set per domain, reused by every
   search the domain runs, so a sweep grows them once instead of
   building fresh ones per pair.  A search takes the domain's set out
   of its slot, empties it before use — so a search that raised or
   stopped early leaves nothing behind — and puts it back when done; a
   search that finds the slot empty (one nested in another on the same
   domain) builds its own.  Between searches the set holds what the
   last one left, at most one search's tables per domain. *)
type workspace = { table : (int, int) Bfs.t; graph : Starved.t }

let workspace_slot : workspace option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let with_workspace f =
  let slot = Domain.DLS.get workspace_slot in
  let ws =
    match !slot with
    | Some ws ->
        slot := None;
        ws
    | None ->
        {
          table = Bfs.create ~emit:(fun _ _ -> ()) ~max_states:0 ();
          graph = Starved.create ();
        }
  in
  Fun.protect ~finally:(fun () -> slot := Some ws) (fun () -> f ws)

let is_prefix = Xset.is_prefix

let search_pair (p : Protocol.t) ~x1 ~x2 ?(depth = 64) ?(max_states = 200_000)
    ?(max_sends_per_sender = 24) ?(max_sends_per_receiver = 24) ?runstates ?mem_budget_bytes
    ?stats () =
  (* A joint search drops exactly when the channel deletes. *)
  let allow_drops = Chan.deletes p.Protocol.channel in
  let rs1, rs2 =
    match runstates with
    | Some rr -> rr
    | None -> (Runstate.create p ~x:x1, Runstate.create p ~x:x2)
  in
  let c = Code.layout p in
  with_workspace @@ fun { table; graph } ->
  (* A joint state is held as its runs' packed store ids and keyed by
     their fingerprint ids — two array reads, no state emitted.  The
     key is what the joint semantics compare (the runs' [Global.emit]
     fingerprints); the first pair admitted under a key stands for
     every pair with those fingerprints. *)
  Bfs.reset table ~max_states ~emit:(fun buf s ->
      Stdx.Codec.add_varint buf (Runstate.fingerprint rs1 (s lsr half));
      Stdx.Codec.add_varint buf (Runstate.fingerprint rs2 (s land low)));
  Starved.clear graph;
  Stats.with_frontier ?mem_budget_bytes ?stats ~states:(fun () -> Bfs.length table)
  @@ fun frontier ->
  let violated_run = ref 0 in
  (* Each side steps through the shared per-x store, so the [Sim.apply]
     under this (state, move) runs once per input across the whole
     sweep; an [Only1]/[Only2] move keeps the other side's store id.  A
     simulator-rejected move skips the joint move. *)
  let step _ s jm =
    let s1 = s lsr half and s2 = s land low in
    let tag = jm / c.Code.stride in
    let k = jm - (tag * c.Code.stride) in
    let s2' = if tag = Code.only1 then s2 else Runstate.apply_code rs2 s2 k in
    let s1' =
      if s2' = Runstate.rejected then Runstate.rejected
      else if tag = Code.only2 then s1
      else Runstate.apply_code rs1 s1 k
    in
    if s1' = Runstate.rejected then None else Some (pack s1' s2')
  in
  (* Each store's initial state is its id 0. *)
  let outcome =
    Bfs.run table frontier ~roots:[ pack 0 0 ] ~depth
      ~admitted:(fun _ s ->
        violated_run :=
          if not (Runstate.row rs1 (s lsr half)).Runstate.safe then 1
          else if not (Runstate.row rs2 (s land low)).Runstate.safe then 2
          else 0;
        !violated_run > 0)
      ~moves:(fun id s ->
        let s1 = s lsr half and s2 = s land low in
        Starved.vertex graph id s1 s2;
        joint_codes c ~allow_drops ~send_cap:max_sends_per_sender
          ~recv_cap:max_sends_per_receiver (Runstate.row rs1 s1) (Runstate.row rs2 s2))
      ~on_edge:(fun _ jm id' -> Starved.edge graph c jm id')
      ~step ()
  in
  let states_explored = Bfs.length table in
  let witness id kind =
    let moves = List.map (Code.to_joint c) (snd (Bfs.path table id)) in
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
        Starved.find graph c ~row1:(Runstate.row rs1) ~row2:(Runstate.row rs2)
          ~state1:(Runstate.state rs1) ~state2:(Runstate.state rs2)
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

let search_single (p : Protocol.t) ~x ?(depth = 64) ?(max_states = 200_000) ?allow_drops
    ?(max_sends_per_sender = 24) ?(max_sends_per_receiver = 24) ?mem_budget_bytes ?stats () =
  let allow_drops =
    match allow_drops with Some b -> b | None -> Chan.deletes p.Protocol.channel
  in
  let keep = Bfs.move_filter ~allow_drops ~max_sends_per_sender ~max_sends_per_receiver in
  let table = Bfs.create ~emit:Global.emit ~max_states () in
  Stats.with_frontier ?mem_budget_bytes ?stats ~states:(fun () -> Bfs.length table)
  @@ fun frontier ->
  let outcome =
    Bfs.run table frontier
      ~roots:[ Global.initial p ~input:(Array.of_list x) ]
      ~depth ~admitted:(fun _ g -> not (Global.safety_ok g))
      ~moves:(fun _ g -> Sim.enabled p g)
      ~step:(fun _ g move -> if keep g move then Some (Sim.apply p g move) else None)
      ()
  in
  let states_explored = Bfs.length table in
  match outcome with
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
  | Bfs.Exhausted { closed } -> No_violation { closed; states_explored }

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

let search p ~xs ?depth ?max_states ?max_sends_per_sender ?max_sends_per_receiver ?jobs
    ?mem_budget_bytes ?stats ?(symm = false) () =
  (* Every eligible pair is tagged with its representative and the map
     that carries the representative's outcome back to it.  Without the
     quotient the group is trivial: a pair is its own representative,
     mapped back by the identity.  Under it, the representative is the
     composed canonical form, mapped back by relabelling through π⁻¹ and,
     when the swapped ordering won, mirroring the runs. *)
  let tag =
    match (if symm then p.Protocol.symmetry else None) with
    | None -> fun (x1, x2) -> (x1, x2, (x1, x2), Fun.id)
    | Some eq ->
        let m = infer_m xs in
        fun (x1, x2) ->
          let ck, pi, swapped = canon_pair_swap ~m x1 x2 in
          ( x1,
            x2,
            ck,
            if swapped then fun o -> mirror_outcome (relabel_outcome eq pi ~x1:x2 ~x2:x1 o)
            else relabel_outcome eq pi ~x1 ~x2 )
  in
  let tagged = List.map tag (eligible_pairs ~xs) in
  (* Each representative is searched once, in order of first
     occurrence; so is a pair listed twice (an input repeated in
     [xs]). *)
  let index : (int list * int list, int) Hashtbl.t = Hashtbl.create 16 in
  let reps =
    List.filter_map
      (fun (_, _, rep, _) ->
        if Hashtbl.mem index rep then None
        else begin
          Hashtbl.add index rep (Hashtbl.length index);
          Some rep
        end)
      tagged
  in
  (* One transition store per distinct searched input, built up front
     and shared by every search that input takes part in, so each
     single-run (state, move) successor is computed once per input.
     The stores are mutex-guarded, so the searches stay embarrassingly
     parallel; Par.map preserves order, so the outcome list and the
     first witness are identical at any job count. *)
  let stores : (int list, Runstate.t) Hashtbl.t = Hashtbl.create 8 in
  let store x =
    match Hashtbl.find_opt stores x with
    | Some rs -> rs
    | None ->
        let rs = Runstate.create p ~x in
        Hashtbl.add stores x rs;
        rs
  in
  let rep_outcomes =
    Array.of_list
      (Par.map ?jobs
         (fun (x1, x2, rs1, rs2) ->
           search_pair p ~x1 ~x2 ?depth ?max_states ?max_sends_per_sender
             ?max_sends_per_receiver ~runstates:(rs1, rs2) ?mem_budget_bytes ?stats ())
         (List.map (fun (x1, x2) -> (x1, x2, store x1, store x2)) reps))
  in
  let outcomes =
    List.map
      (fun (x1, x2, rep, back) -> (x1, x2, back rep_outcomes.(Hashtbl.find index rep)))
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
