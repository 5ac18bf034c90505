type stats = {
  states : int;
  transitions : int;
  safety_violations : int;
  complete_states : int;
  truncated : bool;
}

let all_moves _g _m = true

let reachable p ~input ~depth ?(move_filter = all_moves) ?(max_states = max_int) ?starts () =
  let table = Bfs.create ~emit:Global.emit ~max_states () in
  let roots = match starts with Some gs -> gs | None -> [ Global.initial p ~input ] in
  let transitions = ref 0 in
  let violations = ref 0 in
  let completes = ref 0 in
  (* The depth bound is applied here, not by [Bfs.run], so the run is
     not closed only when the state budget refused a new state. *)
  let outcome =
    Bfs.run table (Stdx.Frontier.create ()) ~roots ~depth:max_int
      ~admitted:(fun _ g ->
        if not (Global.safety_ok g) then incr violations;
        if Global.complete g then incr completes;
        false)
      ~moves:(fun id g -> if Bfs.depth table id < depth then Sim.enabled p g else [])
      ~step:(fun _ g move ->
        if move_filter g move then begin
          incr transitions;
          Some (Sim.apply p g move)
        end
        else None)
      ()
  in
  {
    states = Bfs.length table;
    transitions = !transitions;
    safety_violations = !violations;
    complete_states = !completes;
    truncated = outcome <> Bfs.Exhausted { closed = true };
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
