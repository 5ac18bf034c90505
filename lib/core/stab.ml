module Protocol = Kernel.Protocol
module Global = Kernel.Global
module Move = Kernel.Move
module Sim = Kernel.Sim
module Bfs = Kernel.Bfs
module Sched = Kernel.Sched
module Strategy = Kernel.Strategy
module Symm = Kernel.Symm
module Report = Stdx.Report
module Rng = Stdx.Rng

let space p ~input =
  match p.Protocol.perturb with
  | None -> invalid_arg (p.Protocol.name ^ ": protocol declares no corrupted-start space")
  | Some pe ->
      (match Protocol.validate_perturb p ~input with
      | Ok () -> ()
      | Error e -> invalid_arg (p.Protocol.name ^ ": invalid corrupted-start space: " ^ e));
      (* Corrupted starts: the output tape is empty, so the receiver
         enumeration is taken at written = 0. *)
      let rs = pe.Protocol.receiver_states ~written:0 in
      List.concat_map
        (fun s -> List.map (fun r -> (s, r)) rs)
        (pe.Protocol.sender_states ~input)

(* ------------------------- the sweep ------------------------- *)

type point = {
  s_label : string;
  r_label : string;
  verdict : Verdict.t;
  tts : int option;
}

type sweep = {
  protocol_name : string;
  input : int list;
  space_size : int;
  stabilised : int;
  worst_tts : int option;
  all_stabilised : bool;
  points : point list;
}

let sweep ?jobs ?(strategy = Strategy.round_robin) ?(max_steps = 20_000) p ~input
    ~within ~seed () =
  let pairs = space p ~input in
  let sessions =
    List.mapi
      (fun i (s, r) ->
        Sched.session p ~input ~strategy
          ~rng:(Rng.split (Rng.create seed) i)
          ~max_steps ~corrupt_sender:s.Protocol.proc ~corrupt_receiver:r.Protocol.proc ())
      pairs
  in
  let results = Par.map ?jobs Sched.run sessions in
  let points =
    List.map2
      (fun (s, r) result ->
        let verdict =
          Verdict.of_result result |> Verdict.assess_stabilisation ~within
        in
        {
          s_label = s.Protocol.label;
          r_label = r.Protocol.label;
          verdict;
          tts = Verdict.time_to_stabilise verdict;
        })
      pairs results
  in
  let stabilised =
    List.length (List.filter (fun pt -> pt.verdict.Verdict.stabilised = Some true) points)
  in
  let worst_tts =
    List.fold_left
      (fun acc pt ->
        match (acc, pt.tts) with
        | None, t -> t
        | Some a, Some t -> Some (max a t)
        | Some a, None -> Some a)
      None points
  in
  {
    protocol_name = p.Protocol.name;
    input = Array.to_list input;
    space_size = List.length points;
    stabilised;
    worst_tts;
    all_stabilised = stabilised = List.length points;
    points;
  }

(* --------------------- corrupted-root search --------------------- *)

type witness = {
  w_s_label : string;
  w_r_label : string;
  moves : Move.t list;
  violation_depth : int;
}

type outcome = No_violation of { closed : bool; states : int } | Violation of witness

let search ?(depth = 200) ?(max_states = 200_000) ?(max_sends_per_sender = 16)
    ?(max_sends_per_receiver = 16) ?mem_budget_bytes ?stats p ~input () =
  let keep = Bfs.move_filter ~allow_drops:true ~max_sends_per_sender ~max_sends_per_receiver in
  let starts =
    List.map
      (fun ((s, r) as start) ->
        (start, Global.initial ~sender:s.Protocol.proc ~receiver:r.Protocol.proc p ~input))
      (space p ~input)
  in
  (* One BFS over the union of every corrupted root's reachable space,
     with run keys deduping states across roots. *)
  let table = Bfs.create ~emit:Global.emit_run_key ~max_states () in
  Attack.Stats.with_frontier ?mem_budget_bytes ?stats ~states:(fun () -> Bfs.length table)
  @@ fun frontier ->
  match
    Bfs.run table frontier ~roots:(List.map snd starts) ~depth
      ~admitted:(fun _ g -> not (Global.safety_ok g))
      ~moves:(fun _ g -> Sim.enabled p g)
      ~step:(fun _ g move ->
        if keep g move then
          match Sim.apply p g move with
          | exception Sim.Model_violation _ -> None
          | g' -> Some g'
        else None)
      ()
  with
  | Bfs.Exhausted { closed } -> No_violation { closed; states = Bfs.length table }
  | Bfs.Found id ->
      let root, moves = Bfs.path table id in
      (* Roots take ids in list order, a repeated key keeping its first
         start's id, so the first start interning to [root] is it. *)
      let (s, r), _ = List.find (fun (_, g) -> Bfs.intern table g = root) starts in
      Violation
        {
          w_s_label = s.Protocol.label;
          w_r_label = r.Protocol.label;
          moves;
          violation_depth = Bfs.depth table id;
        }

(* ------------------------ witness replay ------------------------ *)

let find_corruption p ~input ~s_label ~r_label =
  match
    List.find_opt
      (fun (s, r) -> s.Protocol.label = s_label && r.Protocol.label = r_label)
      (space p ~input)
  with
  | Some (s, r) -> (s, r)
  | None ->
      invalid_arg
        (Printf.sprintf "%s: no corrupted start labelled (%s, %s)" p.Protocol.name s_label
           r_label)

let replay p ~input w =
  let s, r = find_corruption p ~input ~s_label:w.w_s_label ~r_label:w.w_r_label in
  let g0 = Global.initial ~sender:s.Protocol.proc ~receiver:r.Protocol.proc p ~input in
  let g = List.fold_left (fun g move -> Sim.apply p g move) g0 w.moves in
  not (Global.safety_ok g)

let relabel_witness eq pi w =
  { w with moves = List.map (Symm.relabel_move eq pi) w.moves }

type confirmed = { outcome : outcome; replayed : bool; relabel_replayed : bool option }

let swap01 = function 0 -> 1 | 1 -> 0 | d -> d

let confirm ?depth ?max_states ?max_sends ?(relabel = true) p ~input () =
  let outcome =
    search ?depth ?max_states ?max_sends_per_sender:max_sends ?max_sends_per_receiver:max_sends
      p ~input ()
  in
  match outcome with
  | No_violation _ -> { outcome; replayed = false; relabel_replayed = None }
  | Violation w ->
      let relabel_replayed =
        match p.Protocol.symmetry with
        | Some eq when relabel ->
            Some (replay p ~input:(Array.map swap01 input) (relabel_witness eq swap01 w))
        | Some _ | None -> None
      in
      { outcome; replayed = replay p ~input w; relabel_replayed }

(* ------------------------- reporting ------------------------- *)

let margins s =
  let agg key_of =
    let tbl = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun pt ->
        let k = key_of pt in
        let cell =
          match Hashtbl.find_opt tbl k with
          | Some c -> c
          | None ->
              let c = ref (0, 0, None) in
              Hashtbl.add tbl k c;
              order := k :: !order;
              c
        in
        let n, st, wt = !cell in
        let st = if pt.verdict.Verdict.stabilised = Some true then st + 1 else st in
        let wt =
          match (wt, pt.tts) with
          | None, t -> t
          | Some a, Some t -> Some (max a t)
          | Some a, None -> Some a
        in
        cell := (n + 1, st, wt))
      s.points;
    List.rev_map
      (fun k ->
        let n, st, wt = !(Hashtbl.find tbl k) in
        (k, n, st, wt))
      !order
  in
  (agg (fun pt -> pt.s_label), agg (fun pt -> pt.r_label))

let sweep_report ?(title = "corrupted-start stabilisation sweep") s =
  let t =
    Report.table ~title:"per-point verdicts over the corrupted-start space"
      [
        ("sender start", Report.Left);
        ("receiver start", Report.Left);
        ("safe", Report.Right);
        ("complete", Report.Right);
        ("stabilised", Report.Right);
        ("tts", Report.Right);
      ]
  in
  List.iter
    (fun pt ->
      let v = pt.verdict in
      Report.row t
        [
          Report.str pt.s_label;
          Report.str pt.r_label;
          Report.bool v.Verdict.safe;
          Report.bool v.Verdict.complete;
          Report.bool (v.Verdict.stabilised = Some true);
          Report.opt_int pt.tts;
        ])
    s.points;
  let metrics =
    Report.Metrics
      {
        title = None;
        pairs =
          [
            ("protocol", Report.str s.protocol_name);
            ( "input",
              Report.str
                ("[" ^ String.concat "," (List.map string_of_int s.input) ^ "]") );
            ("corrupted_starts", Report.int s.space_size);
            ("stabilised", Report.int s.stabilised);
            ("all_stabilised", Report.bool s.all_stabilised);
            ("worst_tts", Report.opt_int s.worst_tts);
          ];
      }
  in
  (* The marginals: which single-register corruption is the slowest
     (or non-converging) one, without scanning the product table. *)
  let mt =
    Report.table ~title:"per-start marginals (worst tts over the opposite side)"
      [
        ("side", Report.Left);
        ("start", Report.Left);
        ("points", Report.Right);
        ("stabilised", Report.Right);
        ("worst_tts", Report.Right);
      ]
  in
  let s_margin, r_margin = margins s in
  List.iter
    (fun (side, rows) ->
      List.iter
        (fun (label, n, st, wt) ->
          Report.row mt
            [
              Report.str side;
              Report.str label;
              Report.int n;
              Report.int st;
              Report.opt_int wt;
            ])
        rows)
    [ ("S", s_margin); ("R", r_margin) ];
  Report.make ~id:"stab" ~title ~ok:s.all_stabilised
    ~notes:
      [
        "stabilised = safe, complete, and done within the step budget from a corrupted \
         start; worst_tts maximises time-to-stabilise over the enumerated space";
      ]
    [ metrics; Report.finish t; Report.finish mt ]

let outcome_items o =
  match o with
  | No_violation { closed; states } ->
      [
        Report.Metrics
          {
            title = Some "corrupted-root witness search";
            pairs =
              [
                ("violation", Report.bool false);
                ("closed", Report.bool closed);
                ("states", Report.int states);
              ];
          };
      ]
  | Violation w ->
      [
        Report.Metrics
          {
            title = Some "corrupted-root witness search";
            pairs =
              [
                ("violation", Report.bool true);
                ("sender start", Report.str w.w_s_label);
                ("receiver start", Report.str w.w_r_label);
                ("violation_depth", Report.int w.violation_depth);
                ( "moves",
                  Report.str (String.concat "; " (List.map Move.to_string w.moves)) );
              ];
          };
      ]
