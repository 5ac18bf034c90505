type t =
  | Proc : {
      state : 's;
      step : 's -> Event.t -> 's * Action.t list;
      encode : 's -> string;
      mutable enc : string option;
          (* Memoised [encode state].  Process values are physically
             shared across the many global states the explorers branch
             over, so each distinct process state is serialised once
             instead of once per state-table probe.  Benign under
             parallel sweeps: concurrent writers store the same
             value. *)
    }
      -> t

(* [Marshal] output opens with a fixed [Marshal.header_size]-byte
   prefix (magic number, data length, object count, 32-bit size word)
   that the bytes after it determine, so dropping it leaves
   fingerprint equality exactly as it was and shortens every key. *)
let default_encode s =
  let m = Marshal.to_string s [] in
  String.sub m Marshal.header_size (String.length m - Marshal.header_size)

let make ?(encode = default_encode) ~state ~step () = Proc { state; step; encode; enc = None }

let step (Proc p as t) event =
  let state, actions = p.step p.state event in
  (* A self-loop step keeps the same process value (and its memoised
     encoding) instead of allocating an identical copy. *)
  ((if state == p.state then t else Proc { p with state; enc = None }), actions)

let encode (Proc p) =
  match p.enc with
  | Some s -> s
  | None ->
      let s = p.encode p.state in
      p.enc <- Some s;
      s

let emit c t = Stdx.Codec.add_blob c (encode t)
