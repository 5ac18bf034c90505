module Chan = Channel.Chan

type ('a, 'm) t = {
  intern : Stdx.Intern.t;
  scratch : Stdx.Codec.t;
  mutable emit : Stdx.Codec.t -> 'a -> unit;
  mutable max_states : int;
  mutable n : int;  (* admitted ids are exactly [0, n) *)
  mutable parents : int array;  (* -1 at roots *)
  mutable moves : 'm array;  (* written on admission; roots have none *)
  mutable depths : int array;
  mutable held : 'a option array;  (* None once expanded *)
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

let admit t id v ~parent ~move =
  t.n < t.max_states
  && begin
       record t id v ~parent ~depth:(t.depths.(parent) + 1);
       t.moves <- extend t.moves id move;
       t.moves.(id) <- move;
       true
     end

let reset t ~emit ~max_states =
  Stdx.Intern.clear t.intern;
  Array.fill t.held 0 t.n None;
  t.emit <- emit;
  t.max_states <- max_states;
  t.n <- 0

let take t id =
  let v = Option.get t.held.(id) in
  t.held.(id) <- None;
  v

type outcome = Found of int | Exhausted of { closed : bool }

let run t frontier ~roots ~depth ?(admitted = fun _ _ -> false) ?(on_edge = fun _ _ _ -> ())
    ~moves ~step () =
  let found = ref (-1) and closed = ref true in
  (* Pushed before the stop test, so the frontier's peak is the same
     whether or not the search stops at this id. *)
  let enter id v =
    Stdx.Frontier.push frontier id;
    if admitted id v then found := id
  in
  List.iter
    (fun v ->
      if !found < 0 then begin
        let id = intern t v in
        if not (mem t id) then begin
          record t id v ~parent:(-1) ~depth:0;
          enter id v
        end
      end)
    roots;
  while !found < 0 && not (Stdx.Frontier.is_empty frontier) do
    let id = Stdx.Frontier.pop frontier in
    let v = take t id in
    if t.depths.(id) >= depth then closed := false
    else
      List.iter
        (fun m ->
          if !found < 0 then
            match step id v m with
            | None -> ()
            | Some v' ->
                let id' = intern t v' in
                if not (mem t id') then
                  if admit t id' v' ~parent:id ~move:m then enter id' v' else closed := false;
                on_edge id m id')
        (moves id v)
  done;
  if !found >= 0 then Found !found else Exhausted { closed = !closed }

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
