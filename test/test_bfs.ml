(* Tests for the BFS driver and the engines built on it: the driver's
   contract on a tiny space, then differential oracles — each engine's
   state count against an independent exploration of the same space. *)

module Bfs = Kernel.Bfs
module Global = Kernel.Global
module Proc = Kernel.Proc
module Move = Kernel.Move
module Sim = Kernel.Sim
module Protocol = Kernel.Protocol
module Registry = Kernel.Registry
module Chan = Channel.Chan
module Attack = Core.Attack
module Stab = Core.Stab

let check = Alcotest.check

(* ------------------------- the driver ------------------------- *)

(* A tiny space for the driver's contract: the ints mod 6, where every
   state has the moves [`Inc] to v + 1 and [`Dbl] to 2v.  From 0, BFS
   admits 0, 1, …, 5 in that order, so a state's id is its value. *)
let tiny_moves _ _ = [ `Inc; `Dbl ]
let tiny_step _ v = function `Inc -> Some ((v + 1) mod 6) | `Dbl -> Some (2 * v mod 6)

let tiny_run ?(max_states = 100) ?(roots = [ 0 ]) ?(depth = max_int) ?admitted ?on_edge
    ?(moves = tiny_moves) ?(step = tiny_step) () =
  let t = Bfs.create ~emit:Stdx.Codec.add_varint ~max_states () in
  let outcome =
    Bfs.run t (Stdx.Frontier.create ()) ~roots ~depth ?admitted ?on_edge ~moves ~step ()
  in
  (t, outcome)

let outcome =
  Alcotest.testable
    (fun ppf -> function
      | Bfs.Found id -> Format.fprintf ppf "Found %d" id
      | Bfs.Exhausted { closed } -> Format.fprintf ppf "Exhausted { closed = %b }" closed)
    ( = )

(* Calls of a callback, oldest first. *)
let log () =
  let calls = ref [] in
  ((fun x -> calls := x :: !calls), fun () -> List.rev !calls)

let test_admission_is_dense () =
  let note, admitted = log () in
  let t, o = tiny_run ~admitted:(fun id v -> note (id, v); false) () in
  check outcome "the space closes" (Bfs.Exhausted { closed = true }) o;
  check Alcotest.(list (pair int int)) "ids dense in admission order"
    (List.init 6 (fun v -> (v, v))) (admitted ());
  check Alcotest.int "length counts admissions" 6 (Bfs.length t);
  check Alcotest.int "a repeat interns to its id" 4 (Bfs.intern t 4);
  check Alcotest.bool "a path from the root" true
    (Bfs.path t 5 = (0, [ `Inc; `Inc; `Dbl; `Inc ]));
  check Alcotest.bool "a root's path is empty" true (Bfs.path t 0 = (0, []));
  for id = 0 to 5 do
    let root, moves = Bfs.path t id in
    check Alcotest.int "depth is the path length" (List.length moves) (Bfs.depth t id);
    check Alcotest.int "the path replays to the state" id
      (List.fold_left (fun v m -> Option.get (tiny_step 0 v m)) root moves)
  done

let test_repeated_root () =
  let note, admitted = log () in
  let t, _ = tiny_run ~roots:[ 3; 3; 0 ] ~admitted:(fun id v -> note (id, v); false) () in
  check Alcotest.(list (pair int int)) "roots first, in list order, once each"
    [ (0, 3); (1, 0) ]
    (List.filteri (fun i _ -> i < 2) (admitted ()));
  check Alcotest.(list int) "both at depth 0" [ 0; 0 ] [ Bfs.depth t 0; Bfs.depth t 1 ];
  check Alcotest.int "the repeat added no state" 6 (Bfs.length t)

let test_budget_refusal () =
  let t, o = tiny_run ~max_states:3 () in
  check outcome "a refusal is not closed" (Bfs.Exhausted { closed = false }) o;
  check Alcotest.int "the budget holds" 3 (Bfs.length t);
  check Alcotest.bool "the refused id is not admitted" false (Bfs.mem t (Bfs.intern t 3));
  let t, o = tiny_run ~max_states:0 () in
  check Alcotest.int "a root is admitted whatever the budget" 1 (Bfs.length t);
  check outcome "then its successors are refused" (Bfs.Exhausted { closed = false }) o;
  check outcome "only a new state is refused: an exact fit closes"
    (Bfs.Exhausted { closed = true })
    (snd (tiny_run ~max_states:6 ()))

let test_depth_cut () =
  let note, expanded = log () in
  let t, o = tiny_run ~depth:3 ~moves:(fun id v -> note id; tiny_moves id v) () in
  check outcome "a cut is not closed" (Bfs.Exhausted { closed = false }) o;
  check Alcotest.int "the level at the cut is admitted" 5 (Bfs.length t);
  check Alcotest.(list int) "each id below the depth expanded once" [ 0; 1; 2 ] (expanded ());
  let note, expanded = log () in
  ignore (tiny_run ~moves:(fun id v -> note id; tiny_moves id v) ());
  check Alcotest.(list int) "uncut, every id expanded once" [ 0; 1; 2; 3; 4; 5 ] (expanded ())

let test_edges_to_seen_states () =
  let note, edges = log () in
  ignore (tiny_run ~on_edge:(fun id m id' -> note (id, m, id')) ());
  check Alcotest.int "every move of every state" 12 (List.length (edges ()));
  check Alcotest.bool "0 doubles to itself" true (List.mem (0, `Dbl, 0) (edges ()));
  check Alcotest.bool "5 wraps to the root" true (List.mem (5, `Inc, 0) (edges ()))

let test_stop () =
  let note, steps = log () in
  let _, o =
    tiny_run ~admitted:(fun _ v -> v = 3) ~step:(fun id v m -> note (id, m); tiny_step id v m) ()
  in
  check outcome "found where admitted said stop" (Bfs.Found 3) o;
  check Alcotest.bool "no step after the stop" true
    (steps () = [ (0, `Inc); (0, `Dbl); (1, `Inc); (1, `Dbl); (2, `Inc) ]);
  let note, steps = log () in
  let _, o =
    tiny_run ~admitted:(fun _ _ -> true) ~step:(fun id v m -> note id; tiny_step id v m) ()
  in
  check outcome "a root can stop the search" (Bfs.Found 0) o;
  check Alcotest.(list int) "before any step" [] (steps ())

(* A table emptied after a search that stopped with states still held
   behaves as a fresh one with the new emitter and budget: the same
   admissions from id 0, the same outcome, ids, depths and paths. *)
let test_reset () =
  let t, o = tiny_run ~admitted:(fun _ v -> v = 3) () in
  check outcome "the first search stopped" (Bfs.Found 3) o;
  let emit c v = Stdx.Codec.add_varint c (v + 10) in
  let search t =
    let note, admitted = log () in
    let o =
      Bfs.run t (Stdx.Frontier.create ()) ~roots:[ 5 ] ~depth:max_int
        ~admitted:(fun id v -> note (id, v); false)
        ~moves:tiny_moves ~step:tiny_step ()
    in
    (o, admitted ())
  in
  Bfs.reset t ~emit ~max_states:4;
  check Alcotest.int "reset empties the table" 0 (Bfs.length t);
  let fresh = Bfs.create ~emit ~max_states:4 () in
  let o, admitted = search t and o', admitted' = search fresh in
  check outcome "the same outcome" o' o;
  check outcome "the new budget refuses" (Bfs.Exhausted { closed = false }) o;
  check Alcotest.(list (pair int int)) "the same admissions, from id 0" admitted' admitted;
  check Alcotest.(pair int int) "the root is id 0" (0, 5) (List.hd admitted);
  check Alcotest.int "the same length" (Bfs.length fresh) (Bfs.length t);
  for id = 0 to Bfs.length t - 1 do
    check Alcotest.int "the same depth" (Bfs.depth fresh id) (Bfs.depth t id);
    check Alcotest.bool "the same path" true (Bfs.path fresh id = Bfs.path t id)
  done;
  check Alcotest.int "a key interns through the new emitter" (Bfs.intern fresh 0) (Bfs.intern t 0)

(* ------------------------- the move filter ------------------------- *)

let test_move_filter () =
  let p = Protocols.Norep.del ~m:2 in
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

(* The naive references' state key, built from the components
   [Global.emit] encodes: the two process fingerprints, the channels'
   printed forms and the output length.  It shares no codec or intern
   code with the engines' keys, so a key change that merged or split
   states in the engines would not move it with them. *)
let state_key (g : Global.t) =
  ( Proc.encode g.Global.sender,
    Proc.encode g.Global.receiver,
    Format.asprintf "%a" Chan.pp g.Global.chan_sr,
    Format.asprintf "%a" Chan.pp g.Global.chan_rs,
    Global.output_length g )

(* [state_key] refined like [Global.emit_run_key]: per channel, each
   observed message's sent, delivered and dropped counts, and the
   safety bit. *)
let run_key (g : Global.t) =
  let counts c =
    List.map
      (fun m -> (m, Chan.sent_count c m, Chan.delivered_count c m, Chan.dropped_count c m))
      (Chan.observed c)
  in
  (state_key g, counts g.Global.chan_sr, counts g.Global.chan_rs, Global.safety_ok g)

(* A naive reference: a stdlib Hashtbl keyed on [state_key] and a
   Queue of (state, depth), expanding every state below [depth] under
   the engines' move filter.  It shares no key, codec or intern code
   with the engines.  Returns the state count and the count of complete
   states, or [None] past [max_states], and whether any state is
   unsafe. *)
let reference_single p ~input ~allow_drops =
  let keep =
    Bfs.move_filter ~allow_drops ~max_sends_per_sender:caps ~max_sends_per_receiver:caps
  in
  let seen = Hashtbl.create 1024 and queue = Queue.create () in
  let unsafe = ref false and complete = ref 0 in
  let visit g d =
    let k = state_key g in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      if not (Global.safety_ok g) then unsafe := true;
      if Global.complete g then incr complete;
      Queue.add (g, d) queue
    end
  in
  visit (Global.initial p ~input:(Array.of_list input)) 0;
  while Hashtbl.length seen <= max_states && not (Queue.is_empty queue) do
    let g, d = Queue.take queue in
    if d < depth then
      List.iter (fun m -> if keep g m then visit (Sim.apply p g m) (d + 1)) (Sim.enabled p g)
  done;
  ( (if Hashtbl.length seen <= max_states then Some (Hashtbl.length seen, !complete) else None),
    !unsafe )

(* Wherever the naive reference's exploration fits the budget, a
   closed, clean single-run search and a closed recoverability pass see
   exactly the states it reaches under the same filter, and the pass
   counts its complete states; a violating search's witness replays
   through the scheduler, and the reference sees a violation. *)
let test_single_and_spec_match_explore () =
  let compared = ref 0 in
  List.iter
    (fun (name, input, p) ->
      let allow_drops = Chan.deletes p.Protocol.channel in
      match reference_single p ~input ~allow_drops with
      | None, _ -> ()
      | Some (naive, naive_complete), naive_unsafe ->
          (match
             Attack.search_single p ~x:input ~depth ~max_states ~max_sends_per_sender:caps
               ~max_sends_per_receiver:caps ()
           with
          | Attack.No_violation { closed = true; states_explored } ->
              incr compared;
              check Alcotest.int (name ^ ": search_single states") naive states_explored;
              check Alcotest.bool (name ^ ": naive reference sees no violation") false
                naive_unsafe
          | Attack.Witness w ->
              check Alcotest.bool (name ^ ": naive reference sees the violation") true
                naive_unsafe;
              Replay.single_witness ~name p w
          | Attack.No_violation { closed = false; _ } -> ());
          let r =
            Core.Spec.recoverability p ~input ~depth ~max_states ~max_sends_per_sender:caps
              ~max_sends_per_receiver:caps ()
          in
          if r.Core.Spec.closed then begin
            incr compared;
            check Alcotest.int (name ^ ": recoverability states") naive r.Core.Spec.states;
            check Alcotest.int (name ^ ": complete states") naive_complete r.Core.Spec.completed;
            check Alcotest.int (name ^ ": nothing cut off") 0 r.Core.Spec.frontier
          end)
    (instances ());
  check Alcotest.bool "most instances compared" true (!compared >= 100)

(* The naive reference for the corrupted-root search: a stdlib Hashtbl
   keyed on [run_key] and a Queue of (state, depth), rooted at the same
   corrupted starts, skipping simulator-rejected moves.  It stops at
   its first violation, which BFS order makes a shallowest one, and
   returns that violation's depth, or else the number of states in the
   level-bounded space. *)
let reference_stab p ~input ~depth ~caps =
  let keep =
    Bfs.move_filter ~allow_drops:true ~max_sends_per_sender:caps ~max_sends_per_receiver:caps
  in
  let seen = Hashtbl.create 1024 in
  let queue = Queue.create () in
  let violation = ref None in
  let visit g d =
    let k = run_key g in
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
   both runs' [state_key]s and a Queue of (state pair,
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
    let key = (state_key g1, state_key g2) in
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

(* Every joint search on a domain reuses that domain's tables, so a
   sweep's outcomes must not depend on which searches ran before each
   one.  The sweep below mixes protocols and every kind of ending —
   safety stops with states still queued, depth and state-budget cuts,
   starvation witnesses, clean closes — and runs it forward and
   reversed: each search sees a different predecessor, and must give
   the same whole outcome, witness path included, and the naive
   reference's verdict. *)
let test_pair_sweep_order () =
  let counting = Protocols.Counting.protocol_on Chan.Reorder_dup ~domain:2 in
  let dup = Protocols.Norep.dup ~m:2 and del = Protocols.Norep.del ~m:2 in
  let xs = [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ] ] in
  let pairs p ~depth ~max_states ~caps xs =
    List.map (fun (x1, x2) -> (p, x1, x2, depth, max_states, caps)) (Attack.eligible_pairs ~xs)
  in
  let searches =
    pairs counting ~depth:64 ~max_states:200_000 ~caps:6 [ [ 0; 1 ]; [ 1; 0 ]; [ 1 ]; [ 0 ] ]
    @ pairs del ~depth:200 ~max_states:3_000 ~caps:3 xs
    @ [ (del, [ 0; 1 ], [ 0; 0 ], 2, 3_000, 3); (del, [ 0; 1 ], [ 0; 0 ], 200, 50, 3) ]
    @ pairs dup ~depth:200 ~max_states:3_000 ~caps:6 xs
  in
  let run searches =
    List.map
      (fun (p, x1, x2, depth, max_states, caps) ->
        Attack.search_pair p ~x1 ~x2 ~depth ~max_states ~max_sends_per_sender:caps
          ~max_sends_per_receiver:caps ())
      searches
  in
  let forward = run searches in
  let reversed = List.rev (run (List.rev searches)) in
  let kinds = Hashtbl.create 4 in
  List.iter2
    (fun (p, x1, x2, depth, max_states, caps) (o, o') ->
      let seq x = String.concat "" (List.map string_of_int x) in
      let name = Printf.sprintf "%s %s/%s" p.Protocol.name (seq x1) (seq x2) in
      check Alcotest.bool (name ^ ": the same outcome in either order") true (o = o');
      let verdict =
        match o with
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
      check
        Alcotest.(result (pair bool int) (triple int int int))
        (name ^ ": the reference's verdict")
        (reference_pair p ~x1 ~x2 ~depth ~max_states ~caps)
        verdict)
    searches
    (List.combine forward reversed);
  check Alcotest.int "safety, starvation, closed and truncated endings all met" 4
    (Hashtbl.length kinds)

let () =
  Alcotest.run "bfs"
    [
      ( "table",
        [
          Alcotest.test_case "dense admission" `Quick test_admission_is_dense;
          Alcotest.test_case "move filter" `Quick test_move_filter;
        ] );
      ( "driver",
        [
          Alcotest.test_case "repeated root" `Quick test_repeated_root;
          Alcotest.test_case "budget refusal" `Quick test_budget_refusal;
          Alcotest.test_case "depth cut" `Quick test_depth_cut;
          Alcotest.test_case "edges to seen states" `Quick test_edges_to_seen_states;
          Alcotest.test_case "stop" `Quick test_stop;
          Alcotest.test_case "reset" `Quick test_reset;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "search_single and recoverability vs explore" `Quick
            test_single_and_spec_match_explore;
          Alcotest.test_case "stab search vs reference bfs" `Quick test_stab_matches_reference;
          Alcotest.test_case "joint search vs reference bfs" `Quick test_pair_matches_reference;
          Alcotest.test_case "joint sweep in either order" `Quick test_pair_sweep_order;
        ] );
    ]
