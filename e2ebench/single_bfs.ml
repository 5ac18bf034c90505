(* single-bfs: three of the five hand-written BFS loops the one-engine
   refactor would merge (pair-sweep times the fourth, search_pair), each
   on a space it closes.  Nothing is shared across searches — no memo
   carried over, no quotient — so per-state BFS cost dominates.  An op is
   one search; ops come in rounds of the three, in an order the seed
   draws per round.  Explore.reachable is left out: only tests and the
   micro-benchmarks call it. *)

open Harness
module Attack = Core.Attack
module Registry = Kernel.Registry

let name = "single-bfs"

type t = {
  gbn_stab : Kernel.Protocol.t;
  stenning_mod : Kernel.Protocol.t;
  norep : Kernel.Protocol.t;
  rng : Stdx.Rng.t;
}

type engine = Stab | Single | Recover

let engines = [| Stab; Single; Recover |]

type info = {
  span : string;
  prefix : string;  (** metric names are [prefix ^ "states"] and so on *)
  time_metric : string;
  tag : string;  (** suffix of the engine's GC metric *)
  states : int;  (** where the search must close *)
}

let info = function
  | Stab ->
      { span = "stab.search"; prefix = "stab."; time_metric = "stab.search_ms"; tag = "stab"; states = 52_768 }
  | Single ->
      {
        span = "attack.search_single";
        prefix = "attack.single_";
        time_metric = "attack.single_ms";
        tag = "attack_single";
        states = 41_499;
      }
  | Recover ->
      { span = "spec.recoverability"; prefix = "spec."; time_metric = "spec.recover_ms"; tag = "spec"; states = 18_023 }

let build name config = Result.get_ok (Registry.build_protocol ~name config)

let prepare ~seed =
  let rng = Stdx.Rng.create seed in
  fun () ->
    let d = Registry.default in
    {
      (* `stp stab -p gbn-stab --search` at its defaults *)
      gbn_stab =
        build "gbn-stab" { d with Registry.channel = Channel.Chan.Fifo_lossy; domain = 2; max_len = 4 };
      (* E10's cell h=3 over lag:1, on the clean side of the crossover *)
      stenning_mod =
        build "stenning-mod"
          { d with Registry.channel = Channel.Chan.Bounded_reorder { lag = 1 }; domain = 2; header_space = 3 };
      (* `stp recover -p norep -c del -d 2 -i 0,1` *)
      norep = build "norep" { d with Registry.channel = Channel.Chan.Reorder_del; domain = 2 };
      rng;
    }

(* One search: its verdict must hold and it must close at the pinned
   state count; returns (states, peak frontier bytes). *)
let search t engine =
  let { span; states = expected; _ } = info engine in
  let closes states = expect (states = expected) "%s closed at %d states, expected %d" span states expected in
  match engine with
  | Stab -> (
      let stats = Attack.Stats.create () in
      match
        Core.Stab.search ~depth:64 ~max_states:200_000 ~max_sends_per_sender:4
          ~max_sends_per_receiver:4 ~stats t.gbn_stab ~input:[| 0; 1; 1; 0 |] ()
      with
      | Core.Stab.No_violation { closed = true; states } ->
          fun () ->
            closes states;
            (states, (Attack.Stats.snapshot stats).peak_frontier_bytes)
      | _ -> fun () -> raise (Wrong "gbn-stab: a corrupted start reaches a violation"))
  | Single -> (
      let stats = Attack.Stats.create () in
      match
        Attack.search_single t.stenning_mod ~x:[ 0; 0; 0; 1 ] ~depth:150 ~max_states:1_500_000
          ~allow_drops:false ~max_sends_per_sender:10 ~max_sends_per_receiver:10 ~stats ()
      with
      | Attack.No_violation { closed = true; states_explored } ->
          fun () ->
            closes states_explored;
            (states_explored, (Attack.Stats.snapshot stats).peak_frontier_bytes)
      | _ -> fun () -> raise (Wrong "stenning-mod h=3 over lag:1 is not clean"))
  | Recover ->
      let r = Core.Spec.recoverability t.norep ~input:[ 0; 1 ] () in
      fun () ->
        expect (Core.Spec.recoverable r) "norep-del m=2 is not recoverable";
        closes r.Core.Spec.states;
        (r.Core.Spec.states, 0)

(* Op [i] is position [i mod 3] of round [i / 3]. *)
let engine_of t i =
  let order = Array.copy engines in
  Stdx.Rng.shuffle (Stdx.Rng.split t.rng (i / 3)) order;
  order.(i mod 3)

let op t tracer i =
  let engine = engine_of t i in
  let check = Spans.span tracer (info engine).span (fun () -> search t engine) in
  fun () ->
    let { prefix; _ } = info engine in
    let states, peak = check () in
    [ (prefix ^ "states", states); (prefix ^ "peak_frontier_bytes", peak) ]

let repeat_class t i = match engine_of t i with Stab -> 0 | Single -> 1 | Recover -> 2

let layers t tr ~plain ~traced:_ _ =
  List.concat_map
    (fun engine ->
      let { span; prefix; time_metric; tag; _ } = info engine in
      let c name =
        match List.find_opt (fun s -> engine_of t s.index = engine) plain with
        | Some s -> List.assoc name s.counts
        | None -> 0
      in
      let states = c (prefix ^ "states") in
      let search_s = Stat.median (Spans.durations tr span) in
      [
        ms time_metric search_s;
        count (prefix ^ "states") states;
        num (prefix ^ "us_per_state") "us" (ratio (search_s *. 1e6) (float_of_int states));
        num ("gc.minor_words_per_state." ^ tag) "words"
          (ratio (float_of_int (c "gc.minor_words")) (float_of_int states));
      ]
      @
      (* Spec.recoverability takes no Stats accumulator. *)
      if engine = Recover then []
      else [ bytes (prefix ^ "peak_frontier_bytes") (c (prefix ^ "peak_frontier_bytes")) ])
    (Array.to_list engines)
