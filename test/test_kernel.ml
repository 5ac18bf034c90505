(* Tests for the simulation kernel: histories, processes, the
   transition relation, the run driver, schedulers, and the explorer. *)

module Hist = Kernel.Hist
module Event = Kernel.Event
module Action = Kernel.Action
module Proc = Kernel.Proc
module Protocol = Kernel.Protocol
module Global = Kernel.Global
module Move = Kernel.Move
module Sim = Kernel.Sim
module Trace = Kernel.Trace
module Strategy = Kernel.Strategy
module Runner = Kernel.Runner
module Explore = Kernel.Explore
module Chan = Channel.Chan

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------- Hist ------------------------- *)

let test_hist_append_order () =
  let h = Hist.add (Hist.add Hist.empty Hist.Woke) (Hist.Got 3) in
  check Alcotest.int "length" 2 (Hist.length h);
  check Alcotest.bool "order" true (Hist.to_list h = [ Hist.Woke; Hist.Got 3 ])

let test_hist_encode_injective_cases () =
  let enc entries = Hist.encode (List.fold_left Hist.add Hist.empty entries) in
  check Alcotest.bool "got vs sent" true (enc [ Hist.Got 1 ] <> enc [ Hist.Sent 1 ]);
  check Alcotest.bool "symbol matters" true (enc [ Hist.Got 1 ] <> enc [ Hist.Got 2 ]);
  check Alcotest.bool "order matters" true
    (enc [ Hist.Got 1; Hist.Woke ] <> enc [ Hist.Woke; Hist.Got 1 ]);
  (* Multi-digit symbols must not glue ambiguously. *)
  check Alcotest.bool "12 vs 1,2" true (enc [ Hist.Got 12 ] <> enc [ Hist.Got 1; Hist.Got 2 ])

let test_hist_event_action_mapping () =
  let h = Hist.add_event Hist.empty (Event.Deliver 7) in
  let h = Hist.add_action h (Action.Write 3) in
  check Alcotest.bool "mapped" true (Hist.to_list h = [ Hist.Got 7; Hist.Wrote 3 ])

(* ------------------------- Proc ------------------------- *)

let test_proc_step_and_encode () =
  let p =
    Proc.make ~state:0
      ~step:(fun s -> function
        | Event.Wake -> (s + 1, [ Action.Send s ])
        | Event.Deliver _ -> (s, []))
      ()
  in
  let before = Proc.encode p in
  let p', actions = Proc.step p Event.Wake in
  check Alcotest.bool "action emitted" true (actions = [ Action.Send 0 ]);
  check Alcotest.bool "encode changed" true (Proc.encode p' <> before);
  let p2 = Proc.make ~state:0 ~step:(fun s _ -> (s, [])) () in
  check Alcotest.string "same state same encode" (Proc.encode p2) before

(* ------------------------- a tiny test protocol ------------------------- *)

(* Sender emits one message (its first input item) on first wake;
   receiver writes every delivery.  Enough to probe the kernel. *)
let tiny channel =
  {
    Protocol.name = "tiny";
    sender_alphabet = 4;
    receiver_alphabet = 1;
    channel;
    make_sender =
      (fun ~input ->
        Proc.make ~state:false
          ~step:(fun sent -> function
            | Event.Wake when (not sent) && Array.length input > 0 ->
                (true, [ Action.Send input.(0) ])
            | Event.Wake | Event.Deliver _ -> (sent, []))
          ());
    make_receiver =
      (fun () ->
        Proc.make ~state:()
          ~step:(fun () -> function
            | Event.Deliver d -> ((), [ Action.Write d ])
            | Event.Wake -> ((), []))
          ());
    symmetry = None;
    perturb = None;
  }

let bad_sender_writes =
  {
    Protocol.name = "bad-writer";
    sender_alphabet = 1;
    receiver_alphabet = 1;
    channel = Chan.Perfect;
    make_sender =
      (fun ~input:_ ->
        Proc.make ~state:() ~step:(fun () _ -> ((), [ Action.Write 0 ])) ());
    make_receiver = (fun () -> Proc.make ~state:() ~step:(fun () _ -> ((), [])) ());
    symmetry = None;
    perturb = None;
  }

let bad_alphabet =
  {
    Protocol.name = "bad-alphabet";
    sender_alphabet = 2;
    receiver_alphabet = 1;
    channel = Chan.Perfect;
    make_sender =
      (fun ~input:_ -> Proc.make ~state:() ~step:(fun () _ -> ((), [ Action.Send 7 ])) ());
    make_receiver = (fun () -> Proc.make ~state:() ~step:(fun () _ -> ((), [])) ());
    symmetry = None;
    perturb = None;
  }

(* ------------------------- Global / Sim ------------------------- *)

let test_global_initial () =
  let g = Global.initial (tiny Chan.Perfect) ~input:[| 1; 2 |] in
  check Alcotest.int "no output" 0 (Global.output_length g);
  check Alcotest.bool "safe" true (Global.safety_ok g);
  check Alcotest.bool "incomplete" false (Global.complete g);
  check Alcotest.int "time 0" 0 g.Global.time

let test_global_empty_input_complete () =
  let g = Global.initial (tiny Chan.Perfect) ~input:[||] in
  check Alcotest.bool "empty input complete at start" true (Global.complete g)

let test_sim_wake_and_deliver () =
  let p = tiny Chan.Perfect in
  let g = Global.initial p ~input:[| 3 |] in
  check Alcotest.bool "initial moves: wakes only" true
    (Sim.enabled p g = [ Move.Wake_sender; Move.Wake_receiver ]);
  let g = Sim.apply p g Move.Wake_sender in
  check Alcotest.bool "delivery now enabled" true
    (List.mem (Move.Deliver_to_receiver 3) (Sim.enabled p g));
  let g = Sim.apply p g (Move.Deliver_to_receiver 3) in
  check Alcotest.bool "output written" true (Global.output g = [ 3 ]);
  check Alcotest.bool "complete" true (Global.complete g);
  check Alcotest.int "time advanced" 2 g.Global.time

let test_sim_histories_recorded () =
  let p = tiny Chan.Perfect in
  let b = Trace.start p ~input:[| 3 |] in
  Trace.step b Move.Wake_sender;
  Trace.step b (Move.Deliver_to_receiver 3);
  let trace = Trace.finish b in
  check Alcotest.bool "sender history" true
    (Hist.to_list (Trace.s_view trace 2) = [ Hist.Woke; Hist.Sent 3 ]);
  check Alcotest.bool "receiver history" true
    (Hist.to_list (Trace.r_view trace 2) = [ Hist.Got 3; Hist.Wrote 3 ])

let test_sim_rejects_sender_write () =
  let g = Global.initial bad_sender_writes ~input:[| 0 |] in
  Alcotest.check_raises "sender write"
    (Sim.Model_violation "sender attempted to write the output tape") (fun () ->
      ignore (Sim.apply bad_sender_writes g Move.Wake_sender))

let test_sim_rejects_alphabet_violation () =
  let g = Global.initial bad_alphabet ~input:[| 0 |] in
  Alcotest.check_raises "alphabet"
    (Sim.Model_violation "message symbol 7 outside declared alphabet of size 2") (fun () ->
      ignore (Sim.apply bad_alphabet g Move.Wake_sender))

let test_sim_rejects_bogus_delivery () =
  let p = tiny Chan.Perfect in
  let g = Global.initial p ~input:[| 1 |] in
  Alcotest.check_raises "not deliverable"
    (Sim.Model_violation "message 1 not deliverable to R") (fun () ->
      ignore (Sim.apply p g (Move.Deliver_to_receiver 1)))

let test_safety_detects_wrong_write () =
  let p = tiny Chan.Perfect in
  (* tiny receiver blindly writes whatever arrives — feed it a
     mismatching input by sending input.(0) on an input whose first
     element differs... easiest: input [|2|], deliver, then output [2]
     is a prefix.  For a violation, use input [||] so any write
     overshoots. *)
  let g = Global.initial p ~input:[||] in
  (* Sender sends nothing on empty input, so force a channel message by
     crafting the global by hand is impossible here; instead check the
     prefix logic directly through Trace on the counting protocol in
     test_protocols.  Here: outputs equal to input stay safe. *)
  check Alcotest.bool "empty stays safe" true (Global.safety_ok g)

let test_wake_only_complete_detects_deadlock () =
  (* A protocol that does nothing at all deadlocks immediately. *)
  let inert =
    {
      Protocol.name = "inert";
      sender_alphabet = 1;
      receiver_alphabet = 1;
      channel = Chan.Perfect;
      make_sender =
        (fun ~input:_ -> Proc.make ~state:() ~step:(fun () _ -> ((), [])) ());
      make_receiver = (fun () -> Proc.make ~state:() ~step:(fun () _ -> ((), [])) ());
      symmetry = None;
      perturb = None;
    }
  in
  let g = Global.initial inert ~input:[| 0 |] in
  check Alcotest.bool "quiescent" true (Sim.wake_only_complete inert g (Sim.enabled inert g));
  let p = tiny Chan.Perfect in
  let g = Global.initial p ~input:[| 0 |] in
  check Alcotest.bool "tiny is not quiescent (sender will send)" false
    (Sim.wake_only_complete p g (Sim.enabled p g))

(* ------------------------- Runner ------------------------- *)

let test_runner_completes () =
  let p = tiny Chan.Perfect in
  let r =
    Runner.run p ~input:[| 2 |] ~strategy:Strategy.round_robin ~rng:(Stdx.Rng.create 1)
      ~max_steps:100 ()
  in
  check Alcotest.bool "completed" true (r.Runner.stop = Runner.Completed);
  check (Alcotest.option Alcotest.int) "no violation" None
    (Trace.first_safety_violation r.Runner.trace)

let test_runner_budget () =
  let inert =
    {
      Protocol.name = "inert2";
      sender_alphabet = 1;
      receiver_alphabet = 1;
      channel = Chan.Reorder_dup;
      make_sender =
        (* Sends forever so the system is never quiescent. *)
        (fun ~input:_ -> Proc.make ~state:() ~step:(fun () _ -> ((), [ Action.Send 0 ])) ());
      make_receiver = (fun () -> Proc.make ~state:() ~step:(fun () _ -> ((), [])) ());
      symmetry = None;
      perturb = None;
    }
  in
  let r =
    Runner.run inert ~input:[| 0 |] ~strategy:(Strategy.fair_random ())
      ~rng:(Stdx.Rng.create 1) ~max_steps:50 ()
  in
  check Alcotest.bool "budget" true (r.Runner.stop = Runner.Budget);
  check Alcotest.int "steps = budget" 50 r.Runner.steps

let test_runner_quiescent () =
  let inert =
    {
      Protocol.name = "inert3";
      sender_alphabet = 1;
      receiver_alphabet = 1;
      channel = Chan.Perfect;
      make_sender = (fun ~input:_ -> Proc.make ~state:() ~step:(fun () _ -> ((), [])) ());
      make_receiver = (fun () -> Proc.make ~state:() ~step:(fun () _ -> ((), [])) ());
      symmetry = None;
      perturb = None;
    }
  in
  let r =
    Runner.run inert ~input:[| 0 |] ~strategy:Strategy.round_robin ~rng:(Stdx.Rng.create 1)
      ~max_steps:100 ()
  in
  check Alcotest.bool "deadlock detected" true (r.Runner.stop = Runner.Quiescent)

let test_runner_post_roll () =
  let p = tiny Chan.Perfect in
  let r =
    Runner.run p ~input:[| 2 |] ~strategy:Strategy.round_robin ~rng:(Stdx.Rng.create 1)
      ~max_steps:100 ~post_roll:5 ()
  in
  let completed = Option.get (Trace.completed_at r.Runner.trace) in
  check Alcotest.bool "rolled past completion" true (Trace.length r.Runner.trace >= completed + 5)

let test_runner_deterministic () =
  let p = tiny Chan.Perfect in
  let run seed =
    let r =
      Runner.run p ~input:[| 1 |] ~strategy:(Strategy.fair_random ())
        ~rng:(Stdx.Rng.create seed) ~max_steps:100 ()
    in
    Array.to_list (Trace.moves r.Runner.trace)
  in
  check Alcotest.bool "same seed same run" true (run 5 = run 5)

(* ------------------------- Strategy ------------------------- *)

let test_scripted_replay () =
  let p = tiny Chan.Perfect in
  let script = [ Move.Wake_sender; Move.Deliver_to_receiver 3 ] in
  let r =
    Runner.run p ~input:[| 3 |] ~strategy:(Strategy.scripted script) ~rng:(Stdx.Rng.create 1)
      ~max_steps:100 ()
  in
  check Alcotest.bool "script reaches completion" true (r.Runner.stop = Runner.Completed);
  check Alcotest.bool "moves = script" true (Array.to_list (Trace.moves r.Runner.trace) = script)

let test_scripted_stops_on_disabled () =
  let p = tiny Chan.Perfect in
  let script = [ Move.Deliver_to_receiver 3 ] in
  let r =
    Runner.run p ~input:[| 3 |] ~strategy:(Strategy.scripted script) ~rng:(Stdx.Rng.create 1)
      ~max_steps:100 ()
  in
  check Alcotest.bool "ends" true (r.Runner.stop = Runner.Strategy_end);
  check Alcotest.int "nothing happened" 0 (Trace.length r.Runner.trace)

let test_drop_first_budget () =
  (* drop_first must stop dropping after its budget. *)
  let p = Protocols.Norep.del ~m:3 in
  let r =
    Runner.run p ~input:[| 0; 1; 2 |]
      ~strategy:(Strategy.drop_first 3 (Strategy.fair_random ()))
      ~rng:(Stdx.Rng.create 2) ~max_steps:5_000 ()
  in
  let final = Trace.final r.Runner.trace in
  let dropped =
    Chan.dropped_total final.Global.chan_sr + Chan.dropped_total final.Global.chan_rs
  in
  check Alcotest.int "exactly the budget" 3 dropped;
  check Alcotest.bool "still completes" true (r.Runner.stop = Runner.Completed)

let test_starve_receiver () =
  let p = tiny Chan.Perfect in
  let r =
    Runner.run p ~input:[| 1 |]
      ~strategy:(Strategy.starve_receiver ~until:20 Strategy.round_robin)
      ~rng:(Stdx.Rng.create 1) ~max_steps:200 ()
  in
  (* Nothing may reach R before time 20. *)
  check Alcotest.int "no output before starvation lifts" 0
    (Trace.output_length_at r.Runner.trace (min 20 (Trace.length r.Runner.trace)));
  check Alcotest.bool "completes afterwards" true (r.Runner.stop = Runner.Completed)

(* Every accepted spelling parses to the strategy whose name the help
   text promises — and parsing is a pure function of the spelling. *)
let strategy_spelling_gen =
  QCheck.Gen.(
    oneof
      [
        oneofl [ "fair-random"; "round-robin"; "newest-first"; "dup-flood" ];
        map (fun p -> Printf.sprintf "drop:%.2f" p) (float_bound_inclusive 1.0);
        map (fun n -> Printf.sprintf "drop-first:%d" n) (int_bound 50);
      ])

let expected_strategy_name s =
  match String.split_on_char ':' s with
  | [ "dup-flood" ] -> "dup-flood(3)"
  | [ "drop"; p ] -> Printf.sprintf "fair-random+drop(%.2f)" (float_of_string p)
  | [ "drop-first"; n ] -> Printf.sprintf "fair-random+drop-first(%s)" n
  | _ -> s

let prop_strategy_of_string_roundtrip =
  QCheck.Test.make ~name:"Strategy.of_string round-trips accepted spellings" ~count:200
    (QCheck.make ~print:(fun s -> s) strategy_spelling_gen)
    (fun s ->
      match (Strategy.of_string s, Strategy.of_string s) with
      | Ok a, Ok b -> a.Strategy.name = expected_strategy_name s && a.Strategy.name = b.Strategy.name
      | _ -> false)

let test_strategy_of_string_errors () =
  let err s = match Strategy.of_string s with Error e -> e | Ok _ -> "OK" in
  (* Pinned: the unknown-name error quotes the offending spelling. *)
  check Alcotest.string "unknown name" {|unknown strategy "no-such"|} (err "no-such");
  check Alcotest.string "unknown with arg" {|unknown strategy "drop:0.2:extra"|}
    (err "drop:0.2:extra");
  check Alcotest.string "bad drop probability" "drop:P needs a float probability"
    (err "drop:lots");
  check Alcotest.string "bad drop-first count" "drop-first:N needs an integer"
    (err "drop-first:x");
  List.iter
    (fun p -> check Alcotest.string p "drop:P needs a probability in [0, 1]" (err p))
    [ "drop:nan"; "drop:2.5"; "drop:-0.1" ];
  check Alcotest.string "negative drop-first count" "drop-first:N needs a count of at least 0"
    (err "drop-first:-1")

let prop_fair_random_picks_enabled =
  QCheck.Test.make ~name:"fair_random picks an enabled move" QCheck.small_int (fun seed ->
      let p = tiny Chan.Reorder_dup in
      let g = Sim.apply p (Global.initial p ~input:[| 1 |]) Move.Wake_sender in
      let enabled = Sim.enabled p g in
      let s = Strategy.fair_random () in
      match s.Strategy.choose (Stdx.Rng.create seed) p g enabled with
      | Some m -> List.exists (Move.equal m) enabled
      | None -> false)

(* ------------------------- Trace ------------------------- *)

let test_trace_views_monotone () =
  let p = Protocols.Norep.dup ~m:3 in
  let r =
    Runner.run p ~input:[| 1; 0 |] ~strategy:Strategy.round_robin ~rng:(Stdx.Rng.create 1)
      ~max_steps:500 ()
  in
  let trace = r.Runner.trace in
  for t = 0 to Trace.length trace - 1 do
    let a = Hist.length (Trace.r_view trace t) in
    let b = Hist.length (Trace.r_view trace (t + 1)) in
    if b < a then Alcotest.failf "receiver view shrank at %d" t;
    if Trace.output_length_at trace (t + 1) < Trace.output_length_at trace t then
      Alcotest.failf "output shrank at %d" t
  done

let test_trace_view_prefix_property () =
  let p = Protocols.Norep.dup ~m:3 in
  let r =
    Runner.run p ~input:[| 2; 1 |] ~strategy:Strategy.round_robin ~rng:(Stdx.Rng.create 1)
      ~max_steps:500 ()
  in
  let trace = r.Runner.trace in
  let n = Trace.length trace in
  let final_view = Hist.to_list (Trace.r_view trace n) in
  for t = 0 to n do
    let v = Hist.to_list (Trace.r_view trace t) in
    if List.filteri (fun i _ -> i < List.length v) final_view <> v then
      Alcotest.failf "view at %d is not a prefix of the final view" t
  done

(* ------------------------- Explore ------------------------- *)

let test_explore_iter_runs_counts () =
  let p = tiny Chan.Perfect in
  let count = ref 0 in
  Explore.iter_runs p ~input:[| 1 |] ~depth:3 (fun _ -> incr count);
  (* Depth-3 runs over a branching system: more than one, finitely many. *)
  check Alcotest.bool "enumerated" true (!count > 1)

let test_explore_max_runs () =
  let p = tiny Chan.Reorder_dup in
  let count = ref 0 in
  Explore.iter_runs p ~input:[| 1 |] ~depth:6 ~max_runs:10 (fun _ -> incr count);
  check Alcotest.int "capped" 10 !count

(* The binary fingerprint must behave exactly like semantic equality
   of the fingerprinted components on states the engine visits: equal
   bytes iff equal (sender, receiver, channel contents, output length).
   This is the injectivity/self-delimitation property the codec-based
   state tables rely on.  Channels are compared through [Chan.pp], so
   the reference shares no code with the channel codec under test. *)
let prop_global_fingerprint_iff_components =
  let protocols =
    List.concat_map
      (fun k ->
        [
          { (Protocols.Norep.del ~m:2) with Protocol.channel = k };
          Protocols.Stenning_mod.protocol_on k ~domain:2 ~header_space:2;
        ])
      Chan.[ Fifo_lossy; Reorder_dup; Reorder_del; Bounded_reorder { lag = 1 } ]
  in
  QCheck.Test.make ~name:"Global fingerprint equality iff component equality" ~count:60
    QCheck.(triple (int_bound (List.length protocols - 1)) small_int (int_range 5 40))
    (fun (k, seed, steps) ->
      let p = List.nth protocols k in
      let rng = Stdx.Rng.create seed in
      let g = ref (Global.initial p ~input:[| 0; 1 |]) in
      let states = ref [ !g ] in
      (try
         for _ = 1 to steps do
           match Sim.enabled p !g with
           | [] -> raise Exit
           | moves ->
               let m = List.nth moves (Stdx.Rng.int rng (List.length moves)) in
               g := Sim.apply p !g m;
               states := !g :: !states
         done
       with Exit -> ());
      let comps (g : Global.t) =
        ( Proc.encode g.Global.sender,
          Proc.encode g.Global.receiver,
          Format.asprintf "%a" Chan.pp g.Global.chan_sr,
          Format.asprintf "%a" Chan.pp g.Global.chan_rs,
          Global.output_length g )
      in
      List.for_all
        (fun a ->
          List.for_all
            (fun b -> String.equal (Global.encode a) (Global.encode b) = (comps a = comps b))
            !states)
        !states)

(* Process fingerprints are headerless [Marshal] output: they must
   still separate exactly the structurally different states, over
   states of mixed shapes.  Every value is built fresh (no shared
   sub-values, which [Marshal] would record), and half the pairs are
   a state and its deep copy or a one-field edit of it. *)
type shape =
  | Leaf of int
  | Cells of int array
  | Items of int list
  | Node of { tag : int; left : shape; right : shape }
  | Nothing

let rec copy_shape = function
  | Leaf n -> Leaf n
  | Cells a -> Cells (Array.copy a)
  | Items l -> Items (List.map (fun x -> x) l)
  | Node { tag; left; right } -> Node { tag; left = copy_shape left; right = copy_shape right }
  | Nothing -> Nothing

let shape_gen =
  QCheck.Gen.(
    sized_size (int_bound 4)
    @@ fix (fun self n ->
           let leaves =
             [
               map (fun x -> Leaf x) (int_range (-3) 300);
               map (fun l -> Cells (Array.of_list l)) (list_size (int_bound 4) (int_bound 3));
               map (fun l -> Items l) (list_size (int_bound 4) (int_bound 3));
               return Nothing;
             ]
           in
           if n = 0 then oneof leaves
           else
             oneof
               (map3
                  (fun tag left right -> Node { tag; left; right })
                  (int_bound 2) (self (n - 1)) (self (n - 1))
               :: leaves)))

let shape_pair_gen =
  QCheck.Gen.(
    shape_gen >>= fun a ->
    frequency
      [
        (2, map (fun b -> (a, b)) shape_gen);
        (1, return (a, copy_shape a));
        ( 1,
          map
            (fun x ->
              match a with
              | Node { tag; left; right } -> (a, Node { tag = tag + x; left = copy_shape left; right })
              | Leaf n -> (a, Leaf (n + x))
              | Cells c -> (a, Cells (Array.append (Array.copy c) [| x |]))
              | Items l -> (a, Items (x :: l))
              | Nothing -> (a, Leaf x))
            (int_bound 1) );
      ])

let prop_proc_encode_iff_equal =
  QCheck.Test.make ~name:"Proc.encode equality iff structural equality" ~count:500
    (QCheck.make shape_pair_gen) (fun (a, b) ->
      let encode s = Proc.encode (Proc.make ~state:s ~step:(fun s _ -> (s, [])) ()) in
      String.equal (encode a) (encode b) = (a = b)
      && String.length (encode a)
         = String.length (Marshal.to_string a []) - Marshal.header_size)

(* ------------------------- history oracle ------------------------- *)

(* The trace builder records the complete histories from each step's
   move and actions.  This reference rebuilds them independently: it
   replays the moves with [Sim.apply], and for every move that steps a
   process it re-runs [Proc.step] on that process as it was before the
   step, folding the event and the actions into [Hist] values and the
   writes into the output tape. *)
let reference_points p trace =
  let n = Trace.length trace in
  let s_views = Array.make (n + 1) Hist.empty and r_views = Array.make (n + 1) Hist.empty in
  let outputs = Array.make (n + 1) [] in
  let observe h proc event =
    let _, actions = Proc.step proc event in
    (List.fold_left Hist.add_action (Hist.add_event h event) actions, actions)
  in
  let g = ref (Global.initial p ~input:(Trace.input trace)) in
  Array.iteri
    (fun t move ->
      let before = !g in
      let sender event =
        let s, _ = observe s_views.(t) before.Global.sender event in
        (s, r_views.(t), [])
      in
      let receiver event =
        let r, actions = observe r_views.(t) before.Global.receiver event in
        (s_views.(t), r, List.filter_map (function Action.Write d -> Some d | _ -> None) actions)
      in
      let s, r, writes =
        match move with
        | Move.Wake_sender -> sender Event.Wake
        | Move.Deliver_to_sender m -> sender (Event.Deliver m)
        | Move.Wake_receiver -> receiver Event.Wake
        | Move.Deliver_to_receiver m -> receiver (Event.Deliver m)
        | Move.Drop_to_receiver _ | Move.Drop_to_sender _ | Move.Restart_sender
        | Move.Restart_receiver | Move.Corrupt_sender _ | Move.Corrupt_receiver _ ->
            (s_views.(t), r_views.(t), [])
      in
      s_views.(t + 1) <- s;
      r_views.(t + 1) <- r;
      outputs.(t + 1) <- outputs.(t) @ writes;
      g := Sim.apply p before move)
    (Trace.moves trace);
  (s_views, r_views, outputs)

let oracle_channels =
  Chan.[ Perfect; Fifo_lossy; Reorder_dup; Reorder_del; Bounded_reorder { lag = 1 } ]

(* Every registry protocol on every channel its builder accepts, with
   an input from its allowable set (coded's holds only inputs of
   length at most one). *)
let oracle_instances () =
  List.concat_map
    (fun name ->
      List.filter_map
        (fun channel ->
          let config =
            { Kernel.Registry.default with Kernel.Registry.channel; domain = 2; max_len = 3 }
          in
          match Kernel.Registry.build_protocol ~name config with
          | Ok p ->
              let input = if name = "coded" then [| 1 |] else [| 0; 1; 1 |] in
              Some (Printf.sprintf "%s/%s" name (Chan.to_string channel), p, input)
          | Error _ -> None)
        oracle_channels)
    (Kernel.Registry.protocol_names ())

(* Crash-restarts of both processes, plus a corruption of each process
   the protocol declares a corrupted-start space for. *)
let fault_plan p ~input =
  let open Faults.Plan in
  let corrupt =
    match Protocol.corrupt_space p ~input with
    | None -> []
    | Some (ns, nr) ->
        (if ns > 0 then [ Corrupt_state { at = 5; who = Sender; index = ns - 1 } ] else [])
        @ if nr > 0 then [ Corrupt_state { at = 9; who = Receiver; index = nr - 1 } ] else []
  in
  {
    name = "oracle";
    events =
      [ Crash_restart { at = 3; who = Sender } ]
      @ corrupt
      @ [ Crash_restart { at = 7; who = Receiver }; Crash_restart { at = 12; who = Sender } ];
  }

let test_history_oracle () =
  let restarts = ref 0 and corruptions = ref 0 and points = ref 0 in
  List.iter
    (fun (label, p, input) ->
      let plan = fault_plan p ~input in
      let runs =
        List.map (fun seed -> ("fair-random", Strategy.fair_random (), seed)) [ 1; 2; 3 ]
        @ [ ("round-robin", Strategy.round_robin, 1) ]
        @ List.map
            (fun seed -> ("drop:0.3", Strategy.drop_rate 0.3 (Strategy.fair_random ()), seed))
            [ 1; 2 ]
        @ List.map
            (fun seed ->
              ( "faults",
                Faults.Inject.strategy ~plan ~base:(Strategy.drop_rate 0.2 (Strategy.fair_random ())),
                seed ))
            [ 1; 2; 3 ]
      in
      List.iter
        (fun (sname, strategy, seed) ->
          let r =
            Runner.run p ~input ~strategy ~rng:(Stdx.Rng.create seed) ~max_steps:120 ~post_roll:4 ()
          in
          let trace = r.Runner.trace in
          let s_ref, r_ref, out_ref = reference_points p trace in
          (* The one-pass view keys, the sender's with the input suffix
             the knowledge layer keys it by. *)
          let suffix = List.map (fun d -> Hist.Wrote d) (Array.to_list input) in
          let r_keys = Trace.view_keys trace `Receiver ~suffix:[] in
          let s_keys = Trace.view_keys trace `Sender ~suffix in
          check Alcotest.int "a key per point" (Trace.length trace + 1) (Array.length r_keys);
          check Alcotest.int "a sender key per point" (Trace.length trace + 1) (Array.length s_keys);
          Array.iter
            (function
              | Move.Restart_sender | Move.Restart_receiver -> incr restarts
              | Move.Corrupt_sender _ | Move.Corrupt_receiver _ -> incr corruptions
              | _ -> ())
            (Trace.moves trace);
          for t = 0 to Trace.length trace do
            incr points;
            let fail what =
              Alcotest.failf "%s %s seed %d: %s differs at point %d" label sname seed what t
            in
            if not (Hist.equal (Trace.s_view trace t) s_ref.(t)) then fail "s_view";
            if not (Hist.equal (Trace.r_view trace t) r_ref.(t)) then fail "r_view";
            if r_keys.(t) <> Hist.encode r_ref.(t) then fail "receiver view key";
            if s_keys.(t) <> Hist.encode (List.fold_left Hist.add s_ref.(t) suffix) then
              fail "sender view key";
            if Trace.output_at trace t <> out_ref.(t) then fail "output_at";
            if Trace.output_length_at trace t <> List.length out_ref.(t) then
              fail "output_length_at"
          done)
        runs)
    (oracle_instances ());
  check Alcotest.bool "restarts were exercised" true (!restarts > 100);
  check Alcotest.bool "corruptions were exercised" true (!corruptions > 10);
  check Alcotest.bool "points checked" true (!points > 10_000)

(* ------------------------- strategy differential ------------------------- *)

(* The list-building choosers the allocation-free strategies replaced,
   kept here as the reference they must agree with move for move and
   draw for draw. *)
module Reference_strategy = struct
  let is_wake = function Move.Wake_sender | Move.Wake_receiver -> true | _ -> false

  let is_delivery = function
    | Move.Deliver_to_receiver _ | Move.Deliver_to_sender _ -> true
    | _ -> false

  let is_drop = function Move.Drop_to_receiver _ | Move.Drop_to_sender _ -> true | _ -> false

  (* A choice proportional to the positive integer weights. *)
  let pick_weighted rng choices =
    let target = Stdx.Rng.int rng (List.fold_left (fun acc (_, w) -> acc + w) 0 choices) in
    let rec go acc = function
      | [] -> assert false
      | (x, w) :: rest -> if target < acc + w then x else go (acc + w) rest
    in
    go 0 choices

  let fair_random ?(deliver_weight = 4) ?(wake_weight = 2) ?(drop_weight = 0) () rng enabled =
    let weight m =
      if is_wake m then wake_weight else if is_delivery m then deliver_weight else drop_weight
    in
    let weighted =
      List.filter_map (fun m -> let w = weight m in if w > 0 then Some (m, w) else None) enabled
    in
    match weighted with [] -> None | _ -> Some (pick_weighted rng weighted)

  let rotating_delivery_to p ~time enabled =
    let candidates =
      List.filter_map
        (fun m ->
          match (p, m) with
          | `R, Move.Deliver_to_receiver x -> Some (x, m)
          | `S, Move.Deliver_to_sender x -> Some (x, m)
          | _ -> None)
        enabled
    in
    match List.sort (fun (a, _) (b, _) -> Int.compare a b) candidates with
    | [] -> None
    | sorted ->
        let _, m = List.nth sorted (time / 4 mod List.length sorted) in
        Some m

  let round_robin ~time enabled =
    let phase = time mod 4 in
    let preference =
      match phase with
      | 0 -> Some Move.Wake_sender
      | 1 -> rotating_delivery_to `R ~time enabled
      | 2 -> Some Move.Wake_receiver
      | _ -> rotating_delivery_to `S ~time enabled
    in
    match preference with
    | Some m when List.exists (Move.equal m) enabled -> Some m
    | _ -> if phase < 2 then Some Move.Wake_sender else Some Move.Wake_receiver

  let drop_rate p inner rng enabled =
    let drops = List.filter is_drop enabled in
    if drops <> [] && Stdx.Rng.float rng < p then Some (Stdx.Rng.pick rng drops)
    else inner rng (List.filter (fun m -> not (is_drop m)) enabled)

  let drop_first n ~dropped inner rng enabled =
    let drops = List.filter is_drop enabled in
    if dropped < n && drops <> [] then Some (List.hd drops)
    else inner rng (List.filter (fun m -> not (is_drop m)) enabled)
end

let enabled_gen =
  QCheck.Gen.(
    list_size (int_bound 9)
      (oneof
         [
           return Move.Wake_sender;
           return Move.Wake_receiver;
           map (fun x -> Move.Deliver_to_receiver x) (int_bound 4);
           map (fun x -> Move.Deliver_to_sender x) (int_bound 4);
           map (fun x -> Move.Drop_to_receiver x) (int_bound 4);
           map (fun x -> Move.Drop_to_sender x) (int_bound 4);
         ]))

let prop_strategies_match_reference =
  QCheck.Test.make ~name:"strategies choose as the list-building reference" ~count:3000
    QCheck.(
      make
        ~print:(fun (ms, time, seed) ->
          Printf.sprintf "time=%d seed=%d [%s]" time seed
            (String.concat "; " (List.map Move.to_string ms)))
        Gen.(triple enabled_gen (int_bound 40) (int_bound 1000)))
    (fun (enabled, time, seed) ->
      let p = tiny Chan.Fifo_lossy in
      let g = { (Global.initial p ~input:[| 0 |]) with Global.time } in
      let agree (s : Strategy.t) reference =
        let r1 = Stdx.Rng.create seed and r2 = Stdx.Rng.create seed in
        let a = s.Strategy.choose r1 p g enabled and b = reference r2 enabled in
        Option.equal Move.equal a b && Stdx.Rng.bits64 r1 = Stdx.Rng.bits64 r2
      in
      let module R = Reference_strategy in
      agree (Strategy.fair_random ()) (R.fair_random ())
      && agree
           (Strategy.fair_random ~deliver_weight:3 ~wake_weight:0 ~drop_weight:5 ())
           (R.fair_random ~deliver_weight:3 ~wake_weight:0 ~drop_weight:5 ())
      && agree
           (Strategy.fair_random ~deliver_weight:(-1) ~wake_weight:1 ~drop_weight:2 ())
           (R.fair_random ~deliver_weight:(-1) ~wake_weight:1 ~drop_weight:2 ())
      && agree Strategy.round_robin (fun _ e -> R.round_robin ~time e)
      && agree
           (Strategy.drop_rate 0.4 (Strategy.fair_random ()))
           (R.drop_rate 0.4 (R.fair_random ()))
      && agree
           (Strategy.drop_rate 0.5 Strategy.round_robin)
           (R.drop_rate 0.5 (fun _ e -> R.round_robin ~time e))
      && agree
           (Strategy.drop_first 1 (Strategy.fair_random ()))
           (R.drop_first 1 ~dropped:0 (R.fair_random ())))

let () =
  Alcotest.run "kernel"
    [
      ( "hist",
        [
          Alcotest.test_case "append order" `Quick test_hist_append_order;
          Alcotest.test_case "encode distinguishes" `Quick test_hist_encode_injective_cases;
          Alcotest.test_case "event/action mapping" `Quick test_hist_event_action_mapping;
        ] );
      ( "proc",
        [
          Alcotest.test_case "step and encode" `Quick test_proc_step_and_encode;
          qtest prop_proc_encode_iff_equal;
        ] );
      ( "sim",
        [
          Alcotest.test_case "initial global" `Quick test_global_initial;
          Alcotest.test_case "empty input complete" `Quick test_global_empty_input_complete;
          Alcotest.test_case "wake and deliver" `Quick test_sim_wake_and_deliver;
          Alcotest.test_case "histories recorded" `Quick test_sim_histories_recorded;
          Alcotest.test_case "rejects sender write" `Quick test_sim_rejects_sender_write;
          Alcotest.test_case "rejects alphabet violation" `Quick test_sim_rejects_alphabet_violation;
          Alcotest.test_case "rejects bogus delivery" `Quick test_sim_rejects_bogus_delivery;
          Alcotest.test_case "safety on empty" `Quick test_safety_detects_wrong_write;
          Alcotest.test_case "quiescence detection" `Quick test_wake_only_complete_detects_deadlock;
        ] );
      ( "runner",
        [
          Alcotest.test_case "completes" `Quick test_runner_completes;
          Alcotest.test_case "budget stop" `Quick test_runner_budget;
          Alcotest.test_case "quiescent stop" `Quick test_runner_quiescent;
          Alcotest.test_case "post roll" `Quick test_runner_post_roll;
          Alcotest.test_case "deterministic" `Quick test_runner_deterministic;
        ] );
      ( "strategy",
        [
          Alcotest.test_case "scripted replay" `Quick test_scripted_replay;
          Alcotest.test_case "scripted stops when disabled" `Quick test_scripted_stops_on_disabled;
          Alcotest.test_case "drop_first budget" `Quick test_drop_first_budget;
          Alcotest.test_case "starve receiver" `Quick test_starve_receiver;
          Alcotest.test_case "of_string errors pinned" `Quick test_strategy_of_string_errors;
          qtest prop_fair_random_picks_enabled;
          qtest prop_strategy_of_string_roundtrip;
          qtest prop_strategies_match_reference;
        ] );
      ( "trace",
        [
          Alcotest.test_case "views monotone" `Quick test_trace_views_monotone;
          Alcotest.test_case "view prefix property" `Quick test_trace_view_prefix_property;
          Alcotest.test_case "history oracle" `Quick test_history_oracle;
        ] );
      ( "explore",
        [
          Alcotest.test_case "iter_runs" `Quick test_explore_iter_runs_counts;
          Alcotest.test_case "max_runs cap" `Quick test_explore_max_runs;
          qtest prop_global_fingerprint_iff_components;
        ] );
    ]
