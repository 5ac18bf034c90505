exception Enough

let iter_runs p ~input ~depth ?max_runs f =
  let emitted = ref 0 in
  (* Replay the (reversed) move path from the initial state into a
     fresh trace builder and hand the finished run to [f]. *)
  let emit_path path =
    let builder = Trace.start p ~input in
    List.iter (Trace.step builder) (List.rev path);
    f (Trace.finish builder);
    incr emitted;
    match max_runs with Some m when !emitted >= m -> raise Enough | _ -> ()
  in
  (* DFS; the trace builder is mutable, so we rebuild along the path by
     replaying prefixes: instead we carry the path of moves and rebuild
     only on emit, keeping the hot loop allocation-light.  [Sim.enabled]
     always offers both wakes, so every state below the depth bound
     has a successor. *)
  let rec go g d path =
    if d >= depth then emit_path path
    else begin
      let enabled = Sim.enabled p g in
      if Global.complete g && Sim.wake_only_complete p g enabled then emit_path path
      else List.iter (fun m -> go (Sim.apply p g m) (d + 1) (m :: path)) enabled
    end
  in
  try go (Global.initial p ~input) 0 [] with Enough -> ()
