type stats = {
  states : int;
  transitions : int;
  safety_violations : int;
  complete_states : int;
  truncated : bool;
}

let all_moves _g _m = true

let reachable p ~input ~depth ?(move_filter = all_moves) ?max_states ?starts () =
  (* The intern table doubles as the seen-set: a state is new exactly
     when its fingerprint gets a fresh id.  Each generated state is
     emitted into one reusable codec buffer and interned in place —
     no fingerprint string is ever materialised for a repeat state,
     and the BFS never touches the (long) fingerprint again
     afterwards. *)
  let seen = Stdx.Intern.create () in
  let scratch = Stdx.Codec.create ~size:256 () in
  let intern g =
    Stdx.Codec.reset scratch;
    Global.emit scratch g;
    Stdx.Intern.intern_bytes seen (Stdx.Codec.buffer scratch) ~pos:0
      ~len:(Stdx.Codec.length scratch)
  in
  (* The frontier is a flat ring of states.  Depth needs no per-node
     record: a strict BFS drains whole levels in order, so two
     counters — states left in the current level, states queued for
     the next — recover each popped state's depth without boxing a
     [(state, depth)] tuple per node. *)
  let frontier = Stdx.Ring.create () in
  (* Multi-root BFS: corrupted-start sweeps seed the frontier with the
     whole enumerated corruption space at level 0 and measure the union
     of the per-root reachable graphs in one pass (dedup across roots
     is the intern table's job). *)
  let roots =
    match starts with Some gs -> gs | None -> [ Global.initial p ~input ]
  in
  let level = ref 0 in
  let this_level = ref 0 in
  let next_level = ref 0 in
  let transitions = ref 0 in
  let violations = ref 0 in
  let completes = ref 0 in
  let truncated = ref false in
  (* The state budget is a resource guard, not a semantic bound: once
     the seen-set reaches it the BFS stops enqueueing fresh states and
     reports the partial statistics with [truncated] set, so callers
     can attach a truncation note instead of running unbounded. *)
  let over_budget () =
    match max_states with Some m -> Stdx.Intern.length seen >= m | None -> false
  in
  List.iter
    (fun g0 ->
      let _, fresh = intern g0 in
      if fresh then begin
        if not (Global.safety_ok g0) then incr violations;
        if Global.complete g0 then incr completes;
        Stdx.Ring.push frontier g0;
        incr this_level
      end)
    roots;
  while not (Stdx.Ring.is_empty frontier) do
    if !this_level = 0 then begin
      this_level := !next_level;
      next_level := 0;
      incr level
    end;
    let g = Stdx.Ring.pop frontier in
    decr this_level;
    if !level < depth then
      List.iter
        (fun move ->
          if move_filter g move then begin
            incr transitions;
            let g' = Sim.apply p g move in
            if over_budget () then truncated := true
            else begin
              let _, fresh = intern g' in
              if fresh then begin
                if not (Global.safety_ok g') then incr violations;
                if Global.complete g' then incr completes;
                Stdx.Ring.push frontier g';
                incr next_level
              end
            end
          end)
        (Sim.enabled p g)
  done;
  {
    states = Stdx.Intern.length seen;
    transitions = !transitions;
    safety_violations = !violations;
    complete_states = !completes;
    truncated = !truncated;
  }

exception Enough

let iter_runs p ~input ~depth ?(move_filter = all_moves) ?max_runs f =
  let emitted = ref 0 in
  (* Replay the (reversed) move path from the initial state into a
     fresh trace builder and hand the finished run to [f].  Shared by
     the two leaf cases below — depth/quiescence stop and dead end —
     which used to duplicate the rebuild. *)
  let emit_path path =
    let builder = Trace.start p ~input in
    List.iter
      (fun m ->
        let g' = Sim.apply p (Trace.current builder) m in
        Trace.record builder m g')
      (List.rev path);
    f (Trace.finish builder);
    incr emitted;
    match max_runs with Some m when !emitted >= m -> raise Enough | _ -> ()
  in
  (* DFS; the trace builder is mutable, so we rebuild along the path by
     replaying prefixes: instead we carry the path of moves and rebuild
     only on emit, keeping the hot loop allocation-light. *)
  let rec go g d path =
    let stop_here =
      d >= depth || (Global.complete g && Sim.wake_only_complete p g)
    in
    if stop_here then emit_path path
    else begin
      let moves = List.filter (move_filter g) (Sim.enabled p g) in
      match moves with
      | [] -> emit_path path
      | _ -> List.iter (fun m -> go (Sim.apply p g m) (d + 1) (m :: path)) moves
    end
  in
  try go (Global.initial p ~input) 0 [] with Enough -> ()

let no_drops _g = function
  | Move.Drop_to_receiver _ | Move.Drop_to_sender _ -> false
  | Move.Wake_sender | Move.Wake_receiver | Move.Deliver_to_receiver _ | Move.Deliver_to_sender _
  | Move.Restart_sender | Move.Restart_receiver | Move.Corrupt_sender _ | Move.Corrupt_receiver _
    ->
      true
