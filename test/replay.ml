(* Shared by the test executables: replay a search witness through the
   scheduler, so the searches' witnesses are checked against the code
   that runs schedules, not only against the search that found them. *)

module Attack = Core.Attack

(* A [search_single] witness: its moves, fed to [Runner.run] by the
   scripted strategy from the initial state of its input, must first
   break safety exactly at the witness depth.  The run keeps rolling
   past completion, because some violations (ABP's overshoot) come
   after the whole input is written. *)
let single_witness ?(name = "witness") p (w : Attack.witness) =
  let moves = Attack.run_moves w ~which:1 in
  let r =
    Kernel.Runner.run p ~input:(Array.of_list w.Attack.x1)
      ~strategy:(Kernel.Strategy.scripted moves) ~rng:(Stdx.Rng.create 1)
      ~max_steps:(List.length moves + 1) ~post_roll:(List.length moves) ()
  in
  Alcotest.(check (option int))
    (name ^ " replays to a violation at its depth")
    (Some w.Attack.depth)
    (Kernel.Trace.first_safety_violation r.Kernel.Runner.trace)
