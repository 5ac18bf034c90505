module Chan = Channel.Chan

type t = {
  intern : Stdx.Intern.t;
  scratch : Stdx.Codec.t;
  emit : Stdx.Codec.t -> Global.t -> unit;
  max_states : int;
  mutable n : int;  (* admitted ids are exactly [0, n) *)
  mutable parents : int array;  (* -1 at roots *)
  mutable moves : Move.t array;
  mutable depths : int array;
  mutable held : Global.t option array;  (* None once taken *)
}

let create ?(run_key = false) ~max_states () =
  {
    intern = Stdx.Intern.create ~size:64 ();
    scratch = Stdx.Codec.create ~size:256 ();
    emit = (if run_key then Global.emit_run_key else Global.emit);
    max_states;
    n = 0;
    parents = [||];
    moves = [||];
    depths = [||];
    held = [||];
  }

(* Emitted into one reusable buffer and interned in place: a repeat
   state costs a hash and a compare, and allocates no string. *)
let intern t g =
  Stdx.Codec.reset t.scratch;
  t.emit t.scratch g;
  fst
    (Stdx.Intern.intern_bytes t.intern (Stdx.Codec.buffer t.scratch) ~pos:0
       ~len:(Stdx.Codec.length t.scratch))

let mem t id = id < t.n

let record t id g ~parent ~move ~depth =
  if id <> t.n then invalid_arg (Printf.sprintf "Bfs: id %d is not the next to admit" id);
  if id = Array.length t.parents then begin
    let extend a fill = Array.append a (Array.make (max 64 id) fill) in
    t.parents <- extend t.parents (-1);
    t.moves <- extend t.moves Move.Wake_sender;
    t.depths <- extend t.depths 0;
    t.held <- extend t.held None
  end;
  t.parents.(id) <- parent;
  t.moves.(id) <- move;
  t.depths.(id) <- depth;
  t.held.(id) <- Some g;
  t.n <- id + 1

let root t id g = record t id g ~parent:(-1) ~move:Move.Wake_sender ~depth:0

let admit t id g ~parent ~move =
  t.n < t.max_states && (record t id g ~parent ~move ~depth:(t.depths.(parent) + 1); true)

let take t id =
  let g = Option.get t.held.(id) in
  t.held.(id) <- None;
  g

let depth t id = t.depths.(id)

let path t id =
  let rec go id acc =
    if t.parents.(id) < 0 then (id, acc) else go t.parents.(id) (t.moves.(id) :: acc)
  in
  go id []

let length t = t.n

let move_filter ~allow_drops ~max_sends_per_sender ~max_sends_per_receiver (g : Global.t) =
  function
  | Move.Wake_sender -> Chan.sent_total g.Global.chan_sr < max_sends_per_sender
  | Move.Wake_receiver -> Chan.sent_total g.Global.chan_rs < max_sends_per_receiver
  | Move.Drop_to_receiver _ | Move.Drop_to_sender _ -> allow_drops
  | Move.Deliver_to_receiver _ | Move.Deliver_to_sender _ -> true
  | Move.Restart_sender | Move.Restart_receiver | Move.Corrupt_sender _
  | Move.Corrupt_receiver _ ->
      false
