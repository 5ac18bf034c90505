(* Tests for the dense-id search table and the BFS engines built on
   it: table invariants, then differential oracles — each engine's
   state count against an independent exploration of the same space. *)

module Bfs = Kernel.Bfs
module Global = Kernel.Global
module Proc = Kernel.Proc
module Move = Kernel.Move
module Sim = Kernel.Sim
module Protocol = Kernel.Protocol
module Explore = Kernel.Explore
module Registry = Kernel.Registry
module Chan = Channel.Chan
module Attack = Core.Attack
module Stab = Core.Stab

let check = Alcotest.check

(* ------------------------- the table ------------------------- *)

let norep () = Protocols.Norep.del ~m:2

let test_admission_is_dense () =
  let p = norep () in
  let g0 = Global.initial p ~input:[| 0; 1 |] in
  let t = Bfs.create ~emit:Global.emit ~max_states:2 () in
  let id0 = Bfs.intern t g0 in
  check Alcotest.int "first id" 0 id0;
  check Alcotest.bool "interned is not admitted" false (Bfs.mem t id0);
  Bfs.root t id0 g0;
  check Alcotest.bool "root admitted" true (Bfs.mem t id0);
  check Alcotest.int "repeat interns to the same id" id0 (Bfs.intern t g0);
  let g1 = Sim.apply p g0 Move.Wake_sender in
  let id1 = Bfs.intern t g1 in
  check Alcotest.bool "admitted under budget" true
    (Bfs.admit t id1 g1 ~parent:id0 ~move:Move.Wake_sender);
  let g2 = Sim.apply p g1 Move.Wake_sender in
  let id2 = Bfs.intern t g2 in
  check Alcotest.int "a new state interns to the next id" 2 id2;
  check Alcotest.bool "refused at budget" false
    (Bfs.admit t id2 g2 ~parent:id1 ~move:Move.Wake_sender);
  check Alcotest.bool "refused id stays out" false (Bfs.mem t id2);
  check Alcotest.int "length counts admissions" 2 (Bfs.length t);
  check Alcotest.int "root depth" 0 (Bfs.depth t id0);
  check Alcotest.int "one level deeper" 1 (Bfs.depth t id1);
  check Alcotest.bool "path from the root" true (Bfs.path t id1 = (id0, [ Move.Wake_sender ]));
  check Alcotest.bool "a root's path is empty" true (Bfs.path t id0 = (id0, []))

let test_take_releases () =
  let p = norep () in
  let g0 = Global.initial p ~input:[| 0 |] in
  let t = Bfs.create ~emit:Global.emit ~max_states:10 () in
  let id = Bfs.intern t g0 in
  Bfs.root t id g0;
  check Alcotest.bool "held state comes back" true (Bfs.take t id == g0);
  check Alcotest.bool "second take raises" true
    (match Bfs.take t id with exception Invalid_argument _ -> true | _ -> false);
  check Alcotest.bool "per-id data outlives the state" true (Bfs.mem t id && Bfs.depth t id = 0)

let test_out_of_order_admission_rejected () =
  let p = norep () in
  let g0 = Global.initial p ~input:[| 0 |] in
  let t = Bfs.create ~emit:Global.emit ~max_states:10 () in
  check Alcotest.bool "an id that was never interned" true
    (match Bfs.root t 3 g0 with exception Invalid_argument _ -> true | () -> false)

(* ------------------------- the move filter ------------------------- *)

let test_move_filter () =
  let p = norep () in
  let g = Global.initial p ~input:[| 0; 1 |] in
  let keep = Bfs.move_filter ~allow_drops:false ~max_sends_per_sender:1 ~max_sends_per_receiver:0 in
  check Alcotest.bool "wake under the cap" true (keep g Move.Wake_sender);
  check Alcotest.bool "receiver cap 0" false (keep g Move.Wake_receiver);
  let g' = Sim.apply p g Move.Wake_sender in
  check Alcotest.bool "wake at the cap" false (keep g' Move.Wake_sender);
  check Alcotest.bool "drops need allow_drops" false (keep g' (Move.Drop_to_receiver 0));
  check Alcotest.bool "deliveries always" true (keep g' (Move.Deliver_to_receiver 0));
  List.iter
    (fun m -> check Alcotest.bool (Move.to_string m) false (keep g m))
    [ Move.Restart_sender; Move.Restart_receiver; Move.Corrupt_sender 0; Move.Corrupt_receiver 0 ]

(* ------------------------- differential oracles ------------------------- *)

let channels =
  Chan.[ Perfect; Fifo_lossy; Reorder_dup; Reorder_del; Bounded_reorder { lag = 1 } ]

let config channel = { Registry.default with Registry.channel; domain = 2; max_len = 3 }

(* Every registry protocol on every channel its builder accepts, with
   an input from its allowable set: coded's holds only the inputs of
   length at most one. *)
let instances () =
  List.concat_map
    (fun name ->
      List.filter_map
        (fun channel ->
          match Registry.build_protocol ~name (config channel) with
          | Ok p ->
              let input = if name = "coded" then [ 1 ] else [ 0; 1; 1 ] in
              Some (Printf.sprintf "%s/%s" name (Chan.to_string channel), input, p)
          | Error _ -> None)
        channels)
    (Registry.protocol_names ())

let caps = 5
let depth = 80
let max_states = 50_000

let explore p ~input ~allow_drops =
  Explore.reachable p ~input:(Array.of_list input) ~depth ~max_states
    ~move_filter:
      (Bfs.move_filter ~allow_drops ~max_sends_per_sender:caps ~max_sends_per_receiver:caps)
    ()

(* A naive reference that shares no codec or intern code with the
   engines: a stdlib Hashtbl keyed on the two process fingerprints, the
   channels' printed forms and the output length (the components
   [Global.emit] encodes), and a Queue of (state, depth), expanding every state
   below [depth] under the engines' move filter.  [Explore.reachable]
   keys through [Global.emit] and [Intern] like the engines, so a key
   change that merged or split states would move it with them; this
   one would not.  Returns the state count (or [None] past
   [max_states]) and whether any state is unsafe. *)
let reference_single p ~input ~allow_drops =
  let keep =
    Bfs.move_filter ~allow_drops ~max_sends_per_sender:caps ~max_sends_per_receiver:caps
  in
  let key (g : Global.t) =
    ( Proc.encode g.Global.sender,
      Proc.encode g.Global.receiver,
      Format.asprintf "%a" Chan.pp g.Global.chan_sr,
      Format.asprintf "%a" Chan.pp g.Global.chan_rs,
      Global.output_length g )
  in
  let seen = Hashtbl.create 1024 and queue = Queue.create () in
  let unsafe = ref false in
  let visit g d =
    let k = key g in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      if not (Global.safety_ok g) then unsafe := true;
      Queue.add (g, d) queue
    end
  in
  visit (Global.initial p ~input:(Array.of_list input)) 0;
  while Hashtbl.length seen <= max_states && not (Queue.is_empty queue) do
    let g, d = Queue.take queue in
    if d < depth then
      List.iter (fun m -> if keep g m then visit (Sim.apply p g m) (d + 1)) (Sim.enabled p g)
  done;
  ((if Hashtbl.length seen <= max_states then Some (Hashtbl.length seen) else None), !unsafe)

(* A closed, clean single-run search and a closed recoverability pass
   see exactly the states Explore.reachable and the naive reference
   reach under the same filter; a violating search's witness replays
   through the scheduler, and both explorations see a violation. *)
let test_single_and_spec_match_explore () =
  let compared = ref 0 in
  List.iter
    (fun (name, input, p) ->
      let allow_drops = Chan.deletes p.Protocol.channel in
      let e = explore p ~input ~allow_drops in
      if not e.Explore.truncated then begin
        let naive, naive_unsafe = reference_single p ~input ~allow_drops in
        (match
           Attack.search_single p ~x:input ~depth ~max_states ~max_sends_per_sender:caps
             ~max_sends_per_receiver:caps ()
         with
        | Attack.No_violation { closed = true; states_explored } ->
            incr compared;
            check Alcotest.int (name ^ ": search_single states") e.Explore.states states_explored;
            check Alcotest.(option int) (name ^ ": naive reference states") (Some states_explored)
              naive;
            check Alcotest.int (name ^ ": explore sees no violation") 0
              e.Explore.safety_violations;
            check Alcotest.bool (name ^ ": naive reference sees no violation") false naive_unsafe
        | Attack.Witness w ->
            check Alcotest.bool (name ^ ": explore sees the violation") true
              (e.Explore.safety_violations > 0);
            check Alcotest.bool (name ^ ": naive reference sees the violation") true naive_unsafe;
            Replay.single_witness ~name p w
        | Attack.No_violation { closed = false; _ } -> ());
        let r =
          Core.Spec.recoverability p ~input ~depth ~max_states ~max_sends_per_sender:caps
            ~max_sends_per_receiver:caps ()
        in
        if r.Core.Spec.closed then begin
          incr compared;
          check Alcotest.int (name ^ ": recoverability states") e.Explore.states r.Core.Spec.states;
          check Alcotest.(option int) (name ^ ": naive reference states") (Some r.Core.Spec.states)
            naive;
          check Alcotest.int (name ^ ": complete states") e.Explore.complete_states
            r.Core.Spec.completed;
          check Alcotest.int (name ^ ": nothing cut off") 0 r.Core.Spec.frontier
        end
      end)
    (instances ());
  check Alcotest.bool "most instances compared" true (!compared >= 100)

(* The naive reference for the corrupted-root search: a stdlib Hashtbl
   of run-key strings and a Queue of (state, depth), rooted at the same
   corrupted starts, skipping simulator-rejected moves.  It stops at
   its first violation, which BFS order makes a shallowest one, and
   returns that violation's depth, or else the number of states in the
   level-bounded space. *)
let reference_stab p ~input ~depth ~caps =
  let keep =
    Bfs.move_filter ~allow_drops:true ~max_sends_per_sender:caps ~max_sends_per_receiver:caps
  in
  let key g =
    let c = Stdx.Codec.create () in
    Global.emit_run_key c g;
    Stdx.Codec.contents c
  in
  let seen = Hashtbl.create 1024 in
  let queue = Queue.create () in
  let violation = ref None in
  let visit g d =
    let k = key g in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      if (not (Global.safety_ok g)) && !violation = None then violation := Some d;
      Queue.add (g, d) queue
    end
  in
  List.iter
    (fun (s, r) ->
      visit (Global.initial ~sender:s.Protocol.proc ~receiver:r.Protocol.proc p ~input) 0)
    (Stab.space p ~input);
  let rec loop () =
    match Queue.take_opt queue with
    | Some (g, d) when !violation = None ->
        if d < depth then
          List.iter
            (fun m ->
              if keep g m then
                match Sim.apply p g m with
                | exception Sim.Model_violation _ -> ()
                | g' -> visit g' (d + 1))
            (Sim.enabled p g);
        loop ()
    | _ -> ()
  in
  loop ();
  match !violation with Some d -> Error d | None -> Ok (Hashtbl.length seen)

(* Every seamed instance: a closed search counts exactly the reference's
   states, and a violating one reports the reference's shallowest
   violation depth with a witness that replays. *)
let test_stab_matches_reference () =
  let caps = 2 and depth = 40 in
  let compared = ref 0 in
  List.iter
    (fun (name, input, p) ->
      let input = Array.of_list input in
      if p.Protocol.perturb <> None then
        match
          Stab.search ~depth ~max_states ~max_sends_per_sender:caps ~max_sends_per_receiver:caps p
            ~input ()
        with
        | Stab.No_violation { closed = true; states } ->
            incr compared;
            check Alcotest.(result int int) (name ^ ": states") (Ok states)
              (reference_stab p ~input ~depth ~caps)
        | Stab.No_violation { closed = false; _ } -> ()
        | Stab.Violation w ->
            incr compared;
            check Alcotest.(result int int) (name ^ ": shallowest violation")
              (Error w.Stab.violation_depth) (reference_stab p ~input ~depth ~caps);
            check Alcotest.bool (name ^ ": witness replays") true (Stab.replay p ~input w))
    (instances ());
  check Alcotest.bool "most seamed instances compared" true (!compared >= 35)

(* The naive reference for the joint search: a stdlib Hashtbl keyed on
   both runs' [Global.encode] strings and a Queue of (state pair,
   depth), with [Sim.apply] on every joint move and the pairing rules
   written out here.  The receiver's moves step both runs: its wake,
   under the receiver cap read on run 1, and the delivery of a message
   deliverable in both runs.  Each run's sender wake (under the sender
   cap), deliveries to its sender and, on deleting channels, its drops
   step that run alone.  Moves are tried in [Sim.enabled]'s order —
   the receiver's first, then run 1's, then run 2's — and the search
   stops at the first unsafe pair it admits, so even a truncated or
   violating search must count exactly the engine's states. *)
let reference_pair p ~x1 ~x2 ~depth ~max_states ~caps =
  let allow_drops = Chan.deletes p.Protocol.channel in
  let receiver_moves (g1 : Global.t) (g2 : Global.t) =
    List.filter
      (function
        | Move.Wake_receiver -> Chan.sent_total g1.Global.chan_rs < caps
        | Move.Deliver_to_receiver _ as m -> List.mem m (Sim.enabled p g2)
        | _ -> false)
      (Sim.enabled p g1)
  in
  let sender_moves (g : Global.t) =
    List.filter
      (function
        | Move.Wake_sender -> Chan.sent_total g.Global.chan_sr < caps
        | Move.Deliver_to_sender _ -> true
        | Move.Drop_to_receiver _ | Move.Drop_to_sender _ -> allow_drops
        | _ -> false)
      (Sim.enabled p g)
  in
  let step g m =
    match Sim.apply p g m with g' -> Some g' | exception Sim.Model_violation _ -> None
  in
  let seen = Hashtbl.create 1024 in
  let queue = Queue.create () in
  let violation = ref None and truncated = ref false in
  let visit (g1, g2) d =
    let key = (Global.encode g1, Global.encode g2) in
    if !violation = None && not (Hashtbl.mem seen key) then
      if Hashtbl.length seen >= max_states then truncated := true
      else begin
        Hashtbl.add seen key ();
        if not (Global.safety_ok g1) then violation := Some (1, d)
        else if not (Global.safety_ok g2) then violation := Some (2, d);
        Queue.add ((g1, g2), d) queue
      end
  in
  visit
    (Global.initial p ~input:(Array.of_list x1), Global.initial p ~input:(Array.of_list x2))
    0;
  while !violation = None && not (Queue.is_empty queue) do
    let (g1, g2), d = Queue.take queue in
    if d >= depth then truncated := true
    else begin
      let next pair = Option.iter (fun pair -> visit pair (d + 1)) pair in
      let both m =
        Option.bind (step g1 m) (fun g1' -> Option.map (fun g2' -> (g1', g2')) (step g2 m))
      in
      List.iter (fun m -> next (both m)) (receiver_moves g1 g2);
      List.iter (fun m -> next (Option.map (fun g1' -> (g1', g2)) (step g1 m))) (sender_moves g1);
      List.iter (fun m -> next (Option.map (fun g2' -> (g1, g2')) (step g2 m))) (sender_moves g2)
    end
  done;
  match !violation with
  | Some (run, d) -> Error (run, d, Hashtbl.length seen)
  | None -> Ok (not !truncated, Hashtbl.length seen)

(* Every registry protocol on every channel its builder accepts, on
   input pairs with a common prefix (coded's allowable set holds only
   the inputs of length at most one): search_pair reports the
   reference's closed flag and state count, and a safety witness the
   reference's violated run and depth.  A starvation witness is a
   closed search the reference also closes.  The caps and budget keep
   the battery small while still meeting every kind of outcome. *)
let test_pair_matches_reference () =
  let caps = 3 and depth = 40 and max_states = 3_000 in
  let kinds = Hashtbl.create 4 in
  let engine p ~x1 ~x2 =
    match
      Attack.search_pair p ~x1 ~x2 ~depth ~max_states ~max_sends_per_sender:caps
        ~max_sends_per_receiver:caps ()
    with
    | Attack.Witness { kind = Attack.Safety { violated_run }; depth; states_explored; _ } ->
        Hashtbl.replace kinds "safety" ();
        Error (violated_run, depth, states_explored)
    | Attack.Witness { kind = Attack.Starvation _; states_explored; _ } ->
        Hashtbl.replace kinds "starvation" ();
        Ok (true, states_explored)
    | Attack.No_violation { closed; states_explored } ->
        Hashtbl.replace kinds (if closed then "closed" else "truncated") ();
        Ok (closed, states_explored)
  in
  List.iter
    (fun (name, _, p) ->
      let pairs =
        if String.starts_with ~prefix:"coded/" name then [ ([ 0 ], [ 1 ]) ]
        else [ ([ 0; 1; 1 ], [ 0; 1; 0 ]); ([ 0; 1 ], [ 0; 0 ]) ]
      in
      List.iter
        (fun (x1, x2) ->
          check
            Alcotest.(result (pair bool int) (triple int int int))
            (name ^ ": joint search")
            (reference_pair p ~x1 ~x2 ~depth ~max_states ~caps)
            (engine p ~x1 ~x2))
        pairs)
    (instances ());
  check Alcotest.int "safety, starvation, closed and truncated outcomes all compared" 4
    (Hashtbl.length kinds)

let () =
  Alcotest.run "bfs"
    [
      ( "table",
        [
          Alcotest.test_case "dense admission" `Quick test_admission_is_dense;
          Alcotest.test_case "take releases" `Quick test_take_releases;
          Alcotest.test_case "out-of-order admission" `Quick test_out_of_order_admission_rejected;
          Alcotest.test_case "move filter" `Quick test_move_filter;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "search_single and recoverability vs explore" `Quick
            test_single_and_spec_match_explore;
          Alcotest.test_case "stab search vs reference bfs" `Quick test_stab_matches_reference;
          Alcotest.test_case "joint search vs reference bfs" `Quick test_pair_matches_reference;
        ] );
    ]
