module Chan = Channel.Chan

type ('a, 'm) t = {
  intern : Stdx.Intern.t;
  scratch : Stdx.Codec.t;
  emit : Stdx.Codec.t -> 'a -> unit;
  max_states : int;
  mutable n : int;  (* admitted ids are exactly [0, n) *)
  mutable parents : int array;  (* -1 at roots *)
  mutable moves : 'm array;  (* written on admission; roots have none *)
  mutable depths : int array;
  mutable held : 'a option array;  (* None once taken *)
}

let create ~emit ~max_states () =
  {
    intern = Stdx.Intern.create ~size:64 ();
    scratch = Stdx.Codec.create ~size:256 ();
    emit;
    max_states;
    n = 0;
    parents = [||];
    moves = [||];
    depths = [||];
    held = [||];
  }

(* Emitted into one reusable buffer and interned in place: a repeat
   state costs a hash and a compare, and allocates no string. *)
let intern t v =
  Stdx.Codec.reset t.scratch;
  t.emit t.scratch v;
  fst
    (Stdx.Intern.intern_bytes t.intern (Stdx.Codec.buffer t.scratch) ~pos:0
       ~len:(Stdx.Codec.length t.scratch))

let mem t id = id < t.n

(* [a] with room for index [id]; new slots hold [fill]. *)
let extend a id fill =
  if id < Array.length a then a else Array.append a (Array.make (max 64 (id + 1)) fill)

let record t id v ~parent ~depth =
  if id <> t.n then invalid_arg (Printf.sprintf "Bfs: id %d is not the next to admit" id);
  t.parents <- extend t.parents id (-1);
  t.depths <- extend t.depths id 0;
  t.held <- extend t.held id None;
  t.parents.(id) <- parent;
  t.depths.(id) <- depth;
  t.held.(id) <- Some v;
  t.n <- id + 1

let root t id v = record t id v ~parent:(-1) ~depth:0

let admit t id v ~parent ~move =
  t.n < t.max_states
  && begin
       record t id v ~parent ~depth:(t.depths.(parent) + 1);
       t.moves <- extend t.moves id move;
       t.moves.(id) <- move;
       true
     end

let take t id =
  let v = Option.get t.held.(id) in
  t.held.(id) <- None;
  v

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
