module Chan = Channel.Chan
module Global = Kernel.Global
module Sim = Kernel.Sim
module Bfs = Kernel.Bfs
module Proc = Kernel.Proc
module Protocol = Kernel.Protocol

type recoverability = {
  states : int;
  completed : int;
  dead : int;
  frontier : int;
  closed : bool;
}

let recoverability (p : Protocol.t) ~input ?(depth = 80) ?(max_states = 200_000)
    ?(max_sends_per_sender = 12) ?(max_sends_per_receiver = 12) ?allow_drops () =
  let allow_drops =
    match allow_drops with Some b -> b | None -> Chan.deletes p.Protocol.channel
  in
  let keep = Bfs.move_filter ~allow_drops ~max_sends_per_sender ~max_sends_per_receiver in
  (* Forward exploration.  Each state is held only until it is
     expanded: the backward pass needs just three bits per id and the
     edges, logged as they are found.  The send caps keep deleting
     channels finite but also hide behaviours (a retransmitting sender
     is not really out of copies), so a state where the filter rejected
     an enabled move is marked capped: it and its ancestors must not be
     declared dead. *)
  let table = Bfs.create ~emit:Global.emit ~max_states () in
  let complete = Stdx.Bitset.create () in
  let expanded = Stdx.Bitset.create () in
  let capped = Stdx.Bitset.create () in
  (* (from, to) id pairs, varint-packed: the edge log the reversed
     adjacency is built from once the forward pass is done. *)
  let edges = Stdx.Frontier.create () in
  let outcome =
    Attack.Stats.with_frontier ~states:(fun () -> Bfs.length table) @@ fun queue ->
    Bfs.run table queue
      ~roots:[ Global.initial p ~input:(Array.of_list input) ]
      ~depth
      ~admitted:(fun id g ->
        if Global.complete g then ignore (Stdx.Bitset.add complete id : bool);
        false)
      ~moves:(fun id g ->
        ignore (Stdx.Bitset.add expanded id : bool);
        Sim.enabled p g)
      ~step:(fun id g move ->
        if keep g move then Some (Sim.apply p g move)
        else begin
          ignore (Stdx.Bitset.add capped id : bool);
          None
        end)
      ~on_edge:(fun id _ id' -> if Bfs.mem table id' then Stdx.Frontier.push2 edges id id')
      ()
  in
  (* Backward marking over reversed edges: which states can still
     complete, and which are tainted by a cap (they, or something they
     can reach, had behaviour hidden by the budget). *)
  let n = Bfs.length table in
  let preds = Array.make n [] in
  while not (Stdx.Frontier.is_empty edges) do
    let src, dst = Stdx.Frontier.pop2 edges in
    preds.(dst) <- src :: preds.(dst)
  done;
  let ids = List.init n Fun.id in
  let mark seed =
    let marked = Stdx.Bitset.create ~size:n () in
    let rec go = function
      | [] -> ()
      | id :: rest ->
          let fresh acc p = if Stdx.Bitset.add marked p then p :: acc else acc in
          go (List.fold_left fresh rest preds.(id))
    in
    go (List.filter (fun id -> seed id && Stdx.Bitset.add marked id) ids);
    Stdx.Bitset.mem marked
  in
  let can_complete = mark (Stdx.Bitset.mem complete) in
  let tainted =
    mark (fun id -> Stdx.Bitset.mem capped id || not (Stdx.Bitset.mem expanded id))
  in
  {
    states = n;
    completed = Stdx.Bitset.cardinal complete;
    (* Unexpanded states are tainted, so an untainted state was expanded. *)
    dead = List.length (List.filter (fun id -> not (can_complete id || tainted id)) ids);
    frontier = n - Stdx.Bitset.cardinal expanded;
    closed = outcome = Bfs.Exhausted { closed = true };
  }

let recoverable r = r.closed && r.dead = 0 && r.completed > 0

let receiver_deterministic (p : Protocol.t) ~trials =
  let fingerprint () = Proc.encode (p.Protocol.make_receiver ()) in
  let base = fingerprint () in
  List.for_all (fun _ -> String.equal (fingerprint ()) base) (List.init (max 0 (trials - 1)) Fun.id)

let pp_recoverability ppf r =
  Format.fprintf ppf "%d states (%d completed, %d dead, %d frontier, %s)" r.states r.completed
    r.dead r.frontier
    (if r.closed then "closed" else "truncated")

let recoverability_report ?protocol r =
  let module R = Stdx.Report in
  let pairs =
    (match protocol with Some p -> [ ("protocol", R.str p) ] | None -> [])
    @ [
        ("states", R.int r.states);
        ("completed", R.int r.completed);
        ("dead", R.int r.dead);
        ("frontier", R.int r.frontier);
        ("closed", R.bool r.closed);
        ("recoverable", R.bool (recoverable r));
      ]
  in
  R.make ~id:"recover" ~title:"dead-state (Property 2) analysis"
    ~ok:(recoverable r)
    [ R.Metrics { title = None; pairs } ]
