(* Growable arrays: the builder's per-step records. *)
module Vec = struct
  type 'a t = { mutable a : 'a array; mutable n : int; fill : 'a }

  let create fill = { a = Array.make 32 fill; n = 0; fill }

  let push v x =
    if v.n = Array.length v.a then begin
      let a = Array.make (2 * v.n) v.fill in
      Array.blit v.a 0 a 0 v.n;
      v.a <- a
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let to_array v = Array.sub v.a 0 v.n
end

(* A history entry as one int: the payload above a two-bit tag. *)
let woke = 0
let got m = (m lsl 2) lor 1
let sent m = (m lsl 2) lor 2
let wrote d = (d lsl 2) lor 3

let entry code =
  match code land 3 with
  | 0 -> Hist.Woke
  | 1 -> Hist.Got (code asr 2)
  | 2 -> Hist.Sent (code asr 2)
  | _ -> Hist.Wrote (code asr 2)

type t = {
  protocol_name : string;
  input : int array;
  moves : Move.t array;
  s_entries : int array; (* both complete histories, coded, whole run *)
  r_entries : int array;
  s_view_len : int array; (* per point, length = moves + 1 *)
  r_view_len : int array;
  out_len : int array;
  outputs : int array; (* final output tape *)
  final : Global.t;
  completed_at : int option;
  first_safety_violation : int option;
}

type builder = {
  protocol : Protocol.t;
  mutable state : Global.t;
  b_moves : Move.t Vec.t;
  s_hist : int Vec.t; (* coded entries *)
  r_hist : int Vec.t;
  s_len : int Vec.t; (* per point *)
  r_len : int Vec.t;
  b_out_len : int Vec.t;
  mutable completed : int option;
  mutable violated : int option;
}

let start ?sender ?receiver (p : Protocol.t) ~input =
  let g0 = Global.initial ?sender ?receiver p ~input in
  let b =
    {
      protocol = p;
      state = g0;
      b_moves = Vec.create Move.Wake_sender;
      s_hist = Vec.create 0;
      r_hist = Vec.create 0;
      s_len = Vec.create 0;
      r_len = Vec.create 0;
      b_out_len = Vec.create 0;
      completed = (if Global.complete g0 then Some 0 else None);
      violated = None;
    }
  in
  Vec.push b.s_len 0;
  Vec.push b.r_len 0;
  Vec.push b.b_out_len 0;
  b

let current b = b.state

let rec record_actions h = function
  | [] -> ()
  | Action.Send m :: rest ->
      Vec.push h (sent m);
      record_actions h rest
  | Action.Write d :: rest ->
      Vec.push h (wrote d);
      record_actions h rest

let step b move =
  let g', actions = Sim.transition b.protocol b.state move in
  (* The stepped process observes its event, then its actions in
     emission order; drops, restarts and corruptions step no process
     and record nothing. *)
  (match move with
  | Move.Wake_sender ->
      Vec.push b.s_hist woke;
      record_actions b.s_hist actions
  | Move.Deliver_to_sender m ->
      Vec.push b.s_hist (got m);
      record_actions b.s_hist actions
  | Move.Wake_receiver ->
      Vec.push b.r_hist woke;
      record_actions b.r_hist actions
  | Move.Deliver_to_receiver m ->
      Vec.push b.r_hist (got m);
      record_actions b.r_hist actions
  | Move.Drop_to_receiver _ | Move.Drop_to_sender _ | Move.Restart_sender | Move.Restart_receiver
  | Move.Corrupt_sender _ | Move.Corrupt_receiver _ ->
      ());
  Vec.push b.b_moves move;
  Vec.push b.s_len b.s_hist.n;
  Vec.push b.r_len b.r_hist.n;
  Vec.push b.b_out_len (Global.output_length g');
  b.state <- g';
  let steps = b.b_moves.n in
  (match b.completed with
  | None when Global.complete g' -> b.completed <- Some steps
  | _ -> ());
  match b.violated with
  | None when not (Global.safety_ok g') -> b.violated <- Some steps
  | _ -> ()

let finish b =
  {
    protocol_name = b.protocol.Protocol.name;
    input = b.state.Global.input;
    moves = Vec.to_array b.b_moves;
    s_entries = Vec.to_array b.s_hist;
    r_entries = Vec.to_array b.r_hist;
    s_view_len = Vec.to_array b.s_len;
    r_view_len = Vec.to_array b.r_len;
    out_len = Vec.to_array b.b_out_len;
    outputs = Array.of_list (Global.output b.state);
    final = b.state;
    completed_at = b.completed;
    first_safety_violation = b.violated;
  }

let protocol_name t = t.protocol_name
let input t = t.input
let length t = Array.length t.moves
let moves t = t.moves
let final t = t.final

(* A view is rebuilt from the run's coded entries on each call: the
   trace shares nothing mutable, so parallel readers are safe. *)
let view entries n =
  let h = ref Hist.empty in
  for i = 0 to n - 1 do
    h := Hist.add !h (entry entries.(i))
  done;
  !h

let r_view t time = view t.r_entries t.r_view_len.(time)
let s_view t time = view t.s_entries t.s_view_len.(time)

(* A view at time t is a prefix of the final view, so its encoding is a
   prefix of the final encoding, cut where its last entry ends: one
   pass over the entries encodes every point's view. *)
let view_keys t side ~suffix =
  let entries, lens =
    match side with
    | `Sender -> (t.s_entries, t.s_view_len)
    | `Receiver -> (t.r_entries, t.r_view_len)
  in
  let buf = Buffer.create 256 in
  let ends = Array.make (Array.length entries + 1) 0 in
  Array.iteri
    (fun i code ->
      Hist.encode_entry buf (entry code);
      ends.(i + 1) <- Buffer.length buf)
    entries;
  List.iter (Hist.encode_entry buf) suffix;
  let all = Buffer.contents buf and cut = ends.(Array.length entries) in
  let tail = String.length all - cut in
  Array.map
    (fun len ->
      let key = Bytes.create (ends.(len) + tail) in
      Bytes.blit_string all 0 key 0 ends.(len);
      Bytes.blit_string all cut key ends.(len) tail;
      Bytes.unsafe_to_string key)
    lens

let output_length_at t time = t.out_len.(time)

let output_at t time = Array.to_list (Array.sub t.outputs 0 t.out_len.(time))

let completed_at t = t.completed_at
let first_safety_violation t = t.first_safety_violation

let messages_sent t =
  Channel.Chan.sent_total t.final.Global.chan_sr + Channel.Chan.sent_total t.final.Global.chan_rs

let pp_summary ppf t =
  Format.fprintf ppf "%s: |X|=%d steps=%d msgs=%d %s%s" t.protocol_name
    (Array.length t.input) (length t) (messages_sent t)
    (match t.completed_at with
    | Some n -> Printf.sprintf "completed@%d" n
    | None -> "incomplete")
    (match t.first_safety_violation with
    | Some n -> Printf.sprintf " SAFETY-VIOLATION@%d" n
    | None -> "")
