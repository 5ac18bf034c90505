(* Tests for the self-stabilisation layer: the perturb seam and its
   validation, corrupt moves through the simulator, and the Core.Stab
   sweep/search pair. *)

module Protocol = Kernel.Protocol
module Global = Kernel.Global
module Move = Kernel.Move
module Sim = Kernel.Sim
module Stab = Core.Stab
module Runstate = Core.Attack.Runstate

let check = Alcotest.check

let abp () = Protocols.Abp.protocol ~domain:2
let stab_p () = Protocols.Abp_stab.protocol ~domain:2 ~max_len:4

(* ------------------------- the perturb seam ------------------------- *)

let test_perturb_validates () =
  let input = [| 0; 1; 1; 0 |] in
  check Alcotest.bool "abp perturb well-formed" true
    (Protocol.validate_perturb (abp ()) ~input = Ok ());
  check Alcotest.bool "abp-stab perturb well-formed" true
    (Protocol.validate_perturb (stab_p ()) ~input = Ok ());
  (* No seam is fine (nothing to validate) ... *)
  check Alcotest.bool "no seam validates" true
    (Protocol.validate_perturb (Protocols.Trivial.protocol ~domain:2) ~input = Ok ());
  (* ... and declares no space. *)
  check Alcotest.bool "no seam, no space" true
    (Protocol.corrupt_space (Protocols.Trivial.protocol ~domain:2) ~input = None)

let test_corrupt_space_sizes () =
  let input = [| 0; 1; 1; 0 |] in
  (* abp-stab: cursor in [0..max_len] x {fresh, started}. *)
  check Alcotest.bool "abp-stab space" true
    (Protocol.corrupt_space (stab_p ()) ~input = Some (5, 2));
  (* abp: (next in [0..n]) x bit, and expected-bit x started. *)
  check Alcotest.bool "abp space" true
    (Protocol.corrupt_space (abp ()) ~input = Some (10, 4));
  check Alcotest.int "product space" 10
    (List.length (Stab.space (stab_p ()) ~input))

let test_designated_state_first () =
  (* Index 0 of each enumeration is the designated boot state: the
     corrupt move with index 0 must behave like a clean start. *)
  let p = stab_p () in
  let input = [| 0; 1 |] in
  let g0 = Global.initial p ~input in
  let g = Sim.apply p (Sim.apply p g0 (Move.Corrupt_sender 0)) (Move.Corrupt_receiver 0) in
  (* Drive both to completion under the same schedule; the corrupted
     copy only differs in its time counter. *)
  let drive g =
    let g = ref g in
    for _ = 1 to 50 do
      match Sim.enabled p !g with
      | m :: _ -> g := Sim.apply p !g m
      | [] -> ()
    done;
    Global.output !g
  in
  check Alcotest.bool "same output from designated corrupt" true (drive g0 = drive g)

(* ------------------------- corrupt moves ------------------------- *)

let test_corrupt_move_guards () =
  let input = [| 0; 1 |] in
  let raises f = match f () with exception Sim.Model_violation _ -> true | _ -> false in
  (* No seam: the move is a model violation, like an illegal symbol. *)
  let trivial = Protocols.Trivial.protocol ~domain:2 in
  check Alcotest.bool "no seam rejected" true
    (raises (fun () ->
         Sim.apply trivial (Global.initial trivial ~input) (Move.Corrupt_sender 0)));
  (* Out-of-range index. *)
  let p = stab_p () in
  check Alcotest.bool "index out of range rejected" true
    (raises (fun () -> Sim.apply p (Global.initial p ~input) (Move.Corrupt_sender 99)));
  check Alcotest.bool "receiver index out of range rejected" true
    (raises (fun () -> Sim.apply p (Global.initial p ~input) (Move.Corrupt_receiver 2)))

let test_corrupt_never_enabled () =
  (* Corrupt moves are roots/injections, never scheduled choices. *)
  let p = stab_p () in
  let g = Global.initial p ~input:[| 0; 1 |] in
  check Alcotest.bool "not listed" false
    (List.exists
       (function Move.Corrupt_sender _ | Move.Corrupt_receiver _ -> true | _ -> false)
       (Sim.enabled p g))

let test_runstate_rejects_corrupt_transitions () =
  let p = stab_p () in
  let rs = Runstate.create p ~x:[ 0; 1 ] in
  check Alcotest.bool "corrupt is not a transition" true
    (match Runstate.apply rs 0 (Move.Corrupt_sender 1) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------- sweep ------------------------- *)

let sweep ?(jobs = 1) () =
  Stab.sweep ~jobs (stab_p ()) ~input:[| 0; 1; 1; 0 |] ~within:256 ~seed:7 ()

let test_sweep_stabilises () =
  let s = sweep () in
  check Alcotest.int "whole space swept" 10 s.Stab.space_size;
  check Alcotest.bool "all stabilised" true s.Stab.all_stabilised;
  (* Pinned worst case: the absolute-resync protocol from any corrupted
     cursor costs one wasted round trip before the first ack lands. *)
  check Alcotest.bool "worst tts" true (s.Stab.worst_tts = Some 62)

let test_sweep_jobs_invariant () =
  let show s =
    Stdx.Json.to_string (Stdx.Report.to_json (Stab.sweep_report s))
  in
  let r1 = show (sweep ~jobs:1 ()) in
  List.iter
    (fun j -> check Alcotest.string (Printf.sprintf "jobs %d identical" j) r1 (show (sweep ~jobs:j ())))
    [ 2; 4; 7 ]

let test_sweep_needs_seam () =
  check Alcotest.bool "no seam raises" true
    (match Stab.sweep (Protocols.Trivial.protocol ~domain:2) ~input:[| 0 |] ~within:8 ~seed:1 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------- search ------------------------- *)

let search p input =
  Stab.search ~depth:64 ~max_states:200_000 ~max_sends_per_sender:4
    ~max_sends_per_receiver:4 p ~input ()

let test_search_closes_stabilising () =
  match search (stab_p ()) [| 0; 1 |] with
  | Stab.No_violation { closed; states } ->
      check Alcotest.bool "closed" true closed;
      check Alcotest.bool "explored something" true (states > 0)
  | Stab.Violation _ -> Alcotest.fail "abp-stab must have no reachable violation"

let test_search_finds_abp_witness () =
  let p = abp () in
  let input = [| 0; 1 |] in
  match search p input with
  | Stab.No_violation _ -> Alcotest.fail "stock ABP must have a corrupted-start violation"
  | Stab.Violation w ->
      check Alcotest.bool "witness replays to a violation" true (Stab.replay p ~input w);
      (* Relabel-replayability: the same schedule violates safety on
         the permuted input. *)
      let pi = function 0 -> 1 | 1 -> 0 | d -> d in
      let eq = Option.get p.Protocol.symmetry in
      let w' = Stab.relabel_witness eq pi w in
      check Alcotest.bool "relabelled witness replays" true
        (Stab.replay p ~input:(Array.map pi input) w')

(* gbn-stab with every process step counted, raising once [limit]
   steps have run: fingerprints are the unwrapped protocol's, so the
   search sees the same space until the step raises. *)
let raising_gbn_stab ~limit =
  let p = Protocols.Gbn_stab.protocol ~domain:2 ~max_len:4 ~window:2 in
  let steps = ref 0 in
  let wrap proc =
    Kernel.Proc.make ~encode:Kernel.Proc.encode ~state:proc
      ~step:(fun s ev ->
        incr steps;
        if !steps > limit then failwith "step limit";
        Kernel.Proc.step s ev)
      ()
  in
  let wrap_all = List.map (fun c -> { c with Protocol.proc = wrap c.Protocol.proc }) in
  let pe = Option.get p.Protocol.perturb in
  {
    p with
    Protocol.make_sender = (fun ~input -> wrap (p.Protocol.make_sender ~input));
    make_receiver = (fun () -> wrap (p.Protocol.make_receiver ()));
    perturb =
      Some
        {
          Protocol.sender_states = (fun ~input -> wrap_all (pe.Protocol.sender_states ~input));
          receiver_states = (fun ~written -> wrap_all (pe.Protocol.receiver_states ~written));
        };
  }

let test_search_closes_frontier_on_raise () =
  (* A search that raises after its frontier has spilled must still
     close the spill file: the fd count comes back to where it was. *)
  let fds () = Array.length (Sys.readdir "/proc/self/fd") in
  if Sys.file_exists "/proc/self/fd" then begin
    let p = raising_gbn_stab ~limit:60_000 in
    let stats = Core.Attack.Stats.create () in
    let before = fds () in
    (match
       Stab.search ~depth:64 ~max_states:200_000 ~max_sends_per_sender:4
         ~max_sends_per_receiver:4 ~mem_budget_bytes:1 ~stats p ~input:[| 0; 1; 1; 0 |] ()
     with
    | exception Failure _ -> ()
    | _ -> Alcotest.fail "the step limit should have raised");
    check Alcotest.bool "spilled before raising" true
      ((Core.Attack.Stats.snapshot stats).Core.Attack.Stats.spill_chunks > 0);
    check Alcotest.int "spill fd closed" before (fds ())
  end

let test_sweep_report_shape () =
  let r = Stab.sweep_report (sweep ()) in
  check Alcotest.string "id" "stab" r.Stdx.Report.id;
  check Alcotest.bool "ok" true (r.Stdx.Report.ok = Some true);
  check Alcotest.bool "artifact validates" true
    (Result.is_ok
       (Stdx.Report.validate_artifact (Stdx.Json.to_string (Stdx.Report.to_json r))))

let test_margins () =
  let s = sweep () in
  let s_margin, r_margin = Stab.margins s in
  check Alcotest.int "one row per sender start" 5 (List.length s_margin);
  check Alcotest.int "one row per receiver start" 2 (List.length r_margin);
  let points rows = List.fold_left (fun acc (_, n, _, _) -> acc + n) 0 rows in
  check Alcotest.int "sender rows cover the space" s.Stab.space_size (points s_margin);
  check Alcotest.int "receiver rows cover the space" s.Stab.space_size (points r_margin);
  let worst rows =
    List.fold_left
      (fun acc (_, _, _, wt) ->
        match (acc, wt) with
        | None, t -> t
        | Some a, Some t -> Some (max a t)
        | Some a, None -> Some a)
      None rows
  in
  check Alcotest.bool "sender marginal max = global worst" true
    (worst s_margin = s.Stab.worst_tts);
  check Alcotest.bool "receiver marginal max = global worst" true
    (worst r_margin = s.Stab.worst_tts)

(* ------------------------- the protocol families ------------------------- *)

(* Every seamed protocol in the registry, with the corrupt-space sizes
   the seams pin on input [0;1;1;0] (ladder on [0;1] in its small
   allowable set). *)
let input4 = [| 0; 1; 1; 0 |]

let ladder_small () =
  Protocols.Ladder.protocol
    ~xset:(Seqspace.Xset.All_upto { domain = 2; max_len = 2 })
    ~drop_budget:1

let families () =
  [
    ("abp", abp (), input4, Some (10, 4));
    ("abp-stab", stab_p (), input4, Some (5, 2));
    ("stenning", Protocols.Stenning.protocol ~domain:2 ~max_len:4, input4, Some (5, 1));
    ( "stenning-mod",
      Protocols.Stenning_mod.protocol_on Channel.Chan.Fifo_lossy ~domain:2 ~header_space:2,
      input4,
      Some (5, 2) );
    ( "stenning-stab",
      Protocols.Stenning_stab.protocol ~domain:2 ~max_len:4,
      input4,
      Some (5, 2) );
    ("go-back-n", Protocols.Go_back_n.protocol ~domain:2 ~window:2, input4, Some (5, 3));
    ( "gbn-stab",
      Protocols.Gbn_stab.protocol ~domain:2 ~max_len:4 ~window:2,
      input4,
      Some (5, 2) );
    ( "selective-repeat",
      Protocols.Selective_repeat.protocol ~domain:2 ~window:2,
      input4,
      (* base in [0..4]; clean + one poison offset x two data values. *)
      Some (5, 3) );
    (* sender: got_y in [0..k·w] with k=4, w=3; receiver: got_a in
       [0..kmax·w] with kmax=6 over the 7-element allowable set. *)
    ("ladder", ladder_small (), [| 0; 1 |], Some (13, 19));
  ]

let test_family_seams_validate () =
  List.iter
    (fun (name, p, input, space) ->
      check Alcotest.bool (name ^ " validates") true
        (Protocol.validate_perturb p ~input = Ok ());
      check Alcotest.bool (name ^ " space size") true
        (Protocol.corrupt_space p ~input = space))
    (families ())

let test_family_clean_boot_first () =
  (* Index 0 of each enumeration IS the clean boot state, checked by
     state encoding, not just behaviour. *)
  List.iter
    (fun (name, p, input, _) ->
      match Stab.space p ~input with
      | (s0, r0) :: _ ->
          check Alcotest.string (name ^ " sender index 0 = clean boot")
            (Kernel.Proc.encode (p.Protocol.make_sender ~input))
            (Kernel.Proc.encode s0.Protocol.proc);
          check Alcotest.string (name ^ " receiver index 0 = clean boot")
            (Kernel.Proc.encode (p.Protocol.make_receiver ()))
            (Kernel.Proc.encode r0.Protocol.proc)
      | [] -> Alcotest.failf "%s: empty corrupted-start space" name)
    (families ())

let prop_receiver_enumeration_written_invariant =
  (* The written-count convention, as a law: at every tape length the
     receiver enumeration has the same labels in the same order. *)
  QCheck.Test.make ~name:"receiver enumeration is written-invariant" ~count:100
    QCheck.(pair (int_bound 8) (int_bound 20))
    (fun (fi, written) ->
      let fams = families () in
      let _, p, _, _ = List.nth fams (fi mod List.length fams) in
      match p.Protocol.perturb with
      | None -> QCheck.assume_fail ()
      | Some pe ->
          let labels w = List.map (fun c -> c.Protocol.label) (pe.Protocol.receiver_states ~written:w) in
          labels written = labels 0)

(* Drive a run preferring deliveries so the pair makes real progress
   under a deterministic schedule. *)
let drive_until p g ~steps ~stop =
  (* Fair rotation through the four move kinds: every kind that stays
     enabled is taken infinitely often, so acks reach the sender even
     while it keeps refilling its own channel. *)
  let g = ref g in
  let n = ref 0 in
  while (not (stop !g)) && !n < steps do
    let moves = Sim.enabled p !g in
    let pick f = List.find_opt f moves in
    let wake_s = Some Move.Wake_sender in
    let to_r = pick (function Move.Deliver_to_receiver _ -> true | _ -> false) in
    let wake_r = Some Move.Wake_receiver in
    let to_s = pick (function Move.Deliver_to_sender _ -> true | _ -> false) in
    let order =
      match !n mod 4 with
      | 0 -> [ wake_s; to_r; wake_r; to_s ]
      | 1 -> [ to_r; wake_r; to_s; wake_s ]
      | 2 -> [ wake_r; to_s; wake_s; to_r ]
      | _ -> [ to_s; wake_s; to_r; wake_r ]
    in
    let m = Option.get (List.find_map Fun.id order) in
    g := Sim.apply p !g m;
    incr n
  done;
  !g

let test_midrun_receiver_corruption () =
  (* Corrupting the receiver mid-run draws from the enumeration at the
     live tape length: the tape survives untouched and the stabilising
     protocol still finishes the transmission. *)
  let p = Protocols.Gbn_stab.protocol ~domain:2 ~max_len:4 ~window:2 in
  let input = input4 in
  let g = Global.initial p ~input in
  let g = drive_until p g ~steps:500 ~stop:(fun g -> Global.output_length g >= 2) in
  check Alcotest.bool "made progress first" true (Global.output_length g >= 2);
  let before = Global.output g in
  (* Index 0 at the live length is the fresh-but-anchored state. *)
  let g' = Sim.apply p g (Move.Corrupt_receiver 0) in
  check Alcotest.bool "tape untouched by corruption" true (Global.output g' = before);
  let g' =
    drive_until p g' ~steps:2_000 ~stop:(fun g ->
        Global.output g = Array.to_list input)
  in
  check Alcotest.bool "still safe" true (Global.safety_ok g');
  check Alcotest.bool "still completes" true (Global.output g' = Array.to_list input)

let test_family_witnesses_relabel () =
  (* The aliasing families with data-independent corrupted starts:
     their witnesses replay, and relabel-replay on the permuted
     input.  (selective-repeat's poisoned buffers and ladder's
     rank-coding are outside the relabel guarantee by design.) *)
  let pi = function 0 -> 1 | 1 -> 0 | d -> d in
  List.iter
    (fun (name, p, input) ->
      match search p input with
      | Stab.No_violation _ ->
          Alcotest.failf "%s must have a corrupted-start violation" name
      | Stab.Violation w ->
          check Alcotest.bool (name ^ " witness replays") true (Stab.replay p ~input w);
          let eq = Option.get p.Protocol.symmetry in
          let w' = Stab.relabel_witness eq pi w in
          check Alcotest.bool (name ^ " relabelled witness replays") true
            (Stab.replay p ~input:(Array.map pi input) w'))
    [
      ( "stenning-mod",
        Protocols.Stenning_mod.protocol_on Channel.Chan.Fifo_lossy ~domain:2 ~header_space:2,
        input4 );
      ("go-back-n", Protocols.Go_back_n.protocol ~domain:2 ~window:2, input4);
    ]

let test_stabilising_families_close () =
  (* Both new stabilising variants: sweep converges everywhere and the
     capped BFS closes their corrupted-root spaces violation-free. *)
  List.iter
    (fun (name, p) ->
      let s = Stab.sweep p ~input:input4 ~within:256 ~seed:7 () in
      check Alcotest.bool (name ^ " all stabilised") true s.Stab.all_stabilised;
      match search p [| 0; 1 |] with
      | Stab.No_violation { closed; _ } -> check Alcotest.bool (name ^ " closed") true closed
      | Stab.Violation _ -> Alcotest.failf "%s must have no reachable violation" name)
    [
      ("stenning-stab", Protocols.Stenning_stab.protocol ~domain:2 ~max_len:4);
      ("gbn-stab", Protocols.Gbn_stab.protocol ~domain:2 ~max_len:4 ~window:2);
    ]

let test_new_family_sweep_jobs_invariant () =
  let p () = Protocols.Gbn_stab.protocol ~domain:2 ~max_len:4 ~window:2 in
  let show jobs =
    Stdx.Json.to_string
      (Stdx.Report.to_json
         (Stab.sweep_report (Stab.sweep ~jobs (p ()) ~input:input4 ~within:256 ~seed:7 ())))
  in
  let r1 = show 1 in
  List.iter
    (fun j -> check Alcotest.string (Printf.sprintf "jobs %d identical" j) r1 (show j))
    [ 4; 7 ]

let test_written_variant_enumeration_rejected () =
  (* The validator rejects a seam whose receiver labels depend on the
     written count — indices must name the same corruption at every
     injection time. *)
  let p = stab_p () in
  let bad =
    {
      p with
      Protocol.perturb =
        Some
          {
            Protocol.sender_states =
              (fun ~input -> (Option.get p.Protocol.perturb).Protocol.sender_states ~input);
            receiver_states =
              (fun ~written ->
                [
                  {
                    Protocol.label = Printf.sprintf "R:w=%d" written;
                    proc = p.Protocol.make_receiver ();
                  };
                ]);
          };
    }
  in
  check Alcotest.bool "written-dependent labels rejected" true
    (match Protocol.validate_perturb bad ~input:input4 with
    | Error _ -> true
    | Ok () -> false)

let () =
  Alcotest.run "stab"
    [
      ( "perturb",
        [
          Alcotest.test_case "validates" `Quick test_perturb_validates;
          Alcotest.test_case "space sizes" `Quick test_corrupt_space_sizes;
          Alcotest.test_case "designated state first" `Quick test_designated_state_first;
        ] );
      ( "moves",
        [
          Alcotest.test_case "guards" `Quick test_corrupt_move_guards;
          Alcotest.test_case "never enabled" `Quick test_corrupt_never_enabled;
          Alcotest.test_case "runstate rejects" `Quick test_runstate_rejects_corrupt_transitions;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "stabilises with pinned worst tts" `Quick test_sweep_stabilises;
          Alcotest.test_case "jobs invariant" `Quick test_sweep_jobs_invariant;
          Alcotest.test_case "needs a seam" `Quick test_sweep_needs_seam;
          Alcotest.test_case "report shape" `Quick test_sweep_report_shape;
          Alcotest.test_case "margins" `Quick test_margins;
        ] );
      ( "search",
        [
          Alcotest.test_case "closes abp-stab" `Quick test_search_closes_stabilising;
          Alcotest.test_case "finds and replays abp witness" `Quick test_search_finds_abp_witness;
          Alcotest.test_case "closes its frontier on a raise" `Quick
            test_search_closes_frontier_on_raise;
        ] );
      ( "families",
        [
          Alcotest.test_case "seams validate with pinned spaces" `Quick
            test_family_seams_validate;
          Alcotest.test_case "index 0 is the clean boot" `Quick test_family_clean_boot_first;
          QCheck_alcotest.to_alcotest prop_receiver_enumeration_written_invariant;
          Alcotest.test_case "mid-run receiver corruption" `Quick
            test_midrun_receiver_corruption;
          Alcotest.test_case "witnesses relabel-replay" `Quick test_family_witnesses_relabel;
          Alcotest.test_case "stabilising variants close" `Quick
            test_stabilising_families_close;
          Alcotest.test_case "new family jobs invariant" `Quick
            test_new_family_sweep_jobs_invariant;
          Alcotest.test_case "written-dependent enumeration rejected" `Quick
            test_written_variant_enumeration_rejected;
        ] );
    ]
