(* pair-sweep: the paper's constructive impossibility proof at the
   largest m that closes — every pair of the alpha(4) = 65
   repetition-free inputs under reorder+del, searched through the
   symmetry quotient, with the sweep's report rendered to JSON text.
   Nearly all its time is joint BFS over Runstate stores shared across
   pairs, so the quotient, memo, codec/intern and joint-search layers do
   their work here.  Send caps are 3, not E14-full's 4: joint tables of
   ~2.5k states time steadily, tables of ~23k states do not. *)

open Harness
module Attack = Core.Attack
module Registry = Kernel.Registry

let name = "pair-sweep"
let m = 4
let depth = 200
let caps = 3

(* What the sweep must produce. *)
let expected_pairs = 1884
let expected_reps = 91
let expected_peak_joint_states = 2455

type t = { p : Kernel.Protocol.t; xs : int list list }

(* The seed orders the inputs; the set of pairs, and so every verdict
   and count, is the same for every order. *)
let prepare ~seed =
  let order = Array.init (Seqspace.Alpha.alpha_exn m) Fun.id in
  Stdx.Rng.shuffle (Stdx.Rng.create seed) order;
  fun () ->
    let config = { Registry.default with Registry.channel = Channel.Chan.Reorder_del; domain = m } in
    let p = Result.get_ok (Registry.build_protocol ~name:"norep" config) in
    let xs = Array.of_list (Seqspace.Norep.enumerate ~m) in
    { p; xs = Array.to_list (Array.map (fun k -> xs.(k)) order) }

let sweep t ~jobs tracer =
  let stats = Attack.Stats.create () in
  let outcomes, witness =
    Spans.span tracer "attack.search" (fun () ->
        Attack.search t.p ~xs:t.xs ~depth ~max_sends_per_sender:caps
          ~max_sends_per_receiver:caps ~symm:true ~jobs ~stats ())
  in
  let text =
    Spans.span tracer "report.render" (fun () ->
        Stdx.Json.to_string (Stdx.Report.to_json (Attack.search_report outcomes witness)))
  in
  (outcomes, witness, Attack.Stats.snapshot stats, text)

let closed_clean = function Attack.No_violation { closed = true; _ } -> true | _ -> false

let check_sweep (outcomes, witness, (s : Attack.Stats.snapshot), text) =
  expect (List.length outcomes = expected_pairs) "%d pair outcomes, expected %d"
    (List.length outcomes) expected_pairs;
  expect (witness = None) "the sweep found a witness";
  expect
    (List.for_all (fun (_, _, o) -> closed_clean o) outcomes)
    "a pair did not close clean";
  expect (s.peak_joint_states = expected_peak_joint_states) "peak joint states %d, expected %d"
    s.peak_joint_states expected_peak_joint_states;
  [
    ("attack.peak_joint_states", s.peak_joint_states);
    ("frontier.peak_bytes", s.peak_frontier_bytes);
    ("report.bytes", String.length text);
  ]

let canon_key (x1, x2) =
  let key, _, _ = Attack.canon_pair_swap ~m x1 x2 in
  key

let representatives t =
  let seen = Hashtbl.create 128 in
  List.filter_map
    (fun pair ->
      let key = canon_key pair in
      if Hashtbl.mem seen key then None
      else begin
        Hashtbl.add seen key ();
        Some key
      end)
    (Attack.eligible_pairs ~xs:t.xs)

let op t tracer i =
  let result = sweep t ~jobs:1 tracer in
  fun () ->
    (if i = 0 then
       let reps = List.length (representatives t) in
       expect (reps = expected_reps) "the quotient has %d representatives, expected %d" reps
         expected_reps);
    check_sweep result

let repeat_class _ _ = 0

(* The breakdown pass: the sweep rebuilt from public calls, so each
   layer gets its own span — canonicalisation, one store per canonical
   input, one joint search per representative. *)
type breakdown = {
  outcomes : (int list * int list, Attack.outcome) Hashtbl.t;
  reps : int;
  store_states : int;
  store_hits : int;
  joint_states : int;
  peak_joint_states : int;
}

let breakdown t tracer =
  let reps = Spans.span tracer "symm.canon" (fun () -> representatives t) in
  let stores = Hashtbl.create 64 in
  let store x =
    match Hashtbl.find_opt stores x with
    | Some s -> s
    | None ->
        let s = Spans.span tracer "runstate.create" (fun () -> Attack.Runstate.create t.p ~x) in
        Hashtbl.add stores x s;
        s
  in
  let stats = Attack.Stats.create () in
  let outcomes = Hashtbl.create 128 in
  List.iter
    (fun ((x1, x2) as key) ->
      let rs1 = store x1 in
      let rs2 = store x2 in
      Hashtbl.replace outcomes key
        (Spans.span tracer "attack.search_pair" (fun () ->
             Attack.search_pair t.p ~x1 ~x2 ~depth ~max_sends_per_sender:caps
               ~max_sends_per_receiver:caps ~runstates:(rs1, rs2) ~stats ())))
    reps;
  let sum f = Hashtbl.fold (fun _ s acc -> acc + f s) stores 0 in
  {
    outcomes;
    reps = List.length reps;
    store_states = sum Attack.Runstate.states;
    store_hits = sum Attack.Runstate.hits;
    joint_states =
      Hashtbl.fold
        (fun _ o acc ->
          match o with
          | Attack.No_violation { states_explored; _ } -> acc + states_explored
          | Attack.Witness w -> acc + w.Attack.states_explored)
        outcomes 0;
    peak_joint_states = (Attack.Stats.snapshot stats).peak_joint_states;
  }

let same_verdict a b =
  match (a, b) with
  | Attack.No_violation _, Attack.No_violation _ -> a = b
  | Attack.Witness w, Attack.Witness w' ->
      w.Attack.depth = w'.Attack.depth && w.Attack.states_explored = w'.Attack.states_explored
  | _ -> false

let counts_of b =
  [
    ("symm.reps", b.reps);
    ("runstate.states", b.store_states);
    ("runstate.hits", b.store_hits);
    ("attack.joint_states", b.joint_states);
    ("attack.peak_joint_states", b.peak_joint_states);
  ]

let jobs2_sweeps = 5

let layers t tr ~plain ~traced tally =
  (* Two breakdown passes: each rep's verdict must match what
     Attack.search reports for every pair of its orbit, and the second
     pass must count exactly what the first did. *)
  let reference, _, _, _ = sweep t ~jobs:1 None in
  let passes =
    List.filter_map
      (fun k ->
        attempt tally "breakdown" (fun () ->
            Spans.set_op tr (-k);
            let b = Spans.record tr "breakdown" (fun () -> breakdown t (Some tr)) in
            expect (b.reps = expected_reps) "breakdown found %d representatives" b.reps;
            List.iter
              (fun (x1, x2, o) ->
                match Hashtbl.find_opt b.outcomes (canon_key (x1, x2)) with
                | Some o' when same_verdict o o' -> ()
                | _ -> raise (Wrong "a representative's verdict differs from Attack.search's"))
              reference;
            b))
      [ 1; 2 ]
  in
  (match passes with
  | [ b1; b2 ] ->
      tally.attempted <- tally.attempted + 1;
      if counts_of b1 <> counts_of b2 then fail tally "breakdown" "second pass counted differently"
  | _ -> ());
  (* Core.Par's first measurement: the same sweep on two domains. *)
  let j2 =
    List.filter_map
      (fun _ ->
        attempt tally "jobs-2 sweep" (fun () ->
            let t0 = now () in
            let r = sweep t ~jobs:2 None in
            let dt = now () -. t0 in
            ignore (check_sweep r : counts);
            dt))
      (List.init jobs2_sweeps Fun.id)
  in
  let b = match passes with b :: _ -> b | [] -> raise (Wrong "no breakdown pass succeeded") in
  let med name = Stat.median (Spans.durations tr name) in
  let canon_s = med "symm.canon" in
  (* the search_pair self time of one pass, median over the two *)
  let pair_self_s =
    let selves = Spans.self_times tr "attack.search_pair" in
    Stat.median
      (List.map
         (fun k ->
           List.fold_left
             (fun acc ((s : Spans.span), self) -> if s.op = -k then acc +. self else acc)
             0.0 selves)
         [ 1; 2 ])
  in
  let pair_ms = List.map (fun d -> d *. 1e3) (Spans.durations tr "attack.search_pair") in
  let c name = match traced with s :: _ -> List.assoc name s.counts | [] -> 0 in
  let plain_s = Stat.median (List.map (fun s -> s.seconds) plain) in
  [
    ms "symm.canon_ms" canon_s;
    count "symm.reps" b.reps;
    num "attack.search_pair_self_s" "s" pair_self_s;
    num "attack.search_pair_p50_ms" "ms" (Stat.median pair_ms);
    num "attack.search_pair_p90_ms" "ms" (Stat.tail pair_ms).Stat.value;
    count "attack.joint_states" b.joint_states;
    num "attack.us_per_joint_state" "us" (ratio (pair_self_s *. 1e6) (float_of_int b.joint_states));
    ms "attack.orchestration_ms" (med "attack.search" -. canon_s -. pair_self_s);
    count "runstate.states" b.store_states;
    count "runstate.hits" b.store_hits;
    num "runstate.hits_per_state" "ratio"
      (ratio (float_of_int b.store_hits) (float_of_int b.store_states));
    count "attack.peak_joint_states" (c "attack.peak_joint_states");
    bytes "frontier.peak_bytes" (c "frontier.peak_bytes");
    ms "report.render_ms" (med "report.render");
    bytes "report.bytes" (c "report.bytes");
    {
      name = "gc.minor_words_per_sweep";
      unit_ = "words";
      value = Report.int (match plain with s :: _ -> List.assoc "gc.minor_words" s.counts | [] -> 0);
    };
    num "gc.major_collections_per_sweep" "count"
      (ratio
         (float_of_int (List.fold_left (fun acc s -> acc + s.major_gcs) 0 plain))
         (float_of_int (List.length plain)));
    num "par.speedup_j2" "ratio" (if j2 = [] then 0.0 else ratio plain_s (Stat.median j2));
  ]
