module Chan = Channel.Chan
module Json = Stdx.Json

type target = To_receiver | To_sender

type proc = Sender | Receiver

type event =
  | Drop_burst of { at : int; target : target; count : int }
  | Dup_burst of { at : int; target : target; count : int }
  | Reorder_storm of { at : int; len : int }
  | Blackout of { at : int; len : int }
  | Crash_restart of { at : int; who : proc }
  | Corrupt_state of { at : int; who : proc; index : int }

type t = { name : string; events : event list }

(* A drop burst stays armed for a few steps past its nominal span: the
   scripted moment may find the channel empty, and the fault then
   lands on the next in-flight copy instead of silently missing. *)
let drop_grace = 8

(* [a + b], held at [max_int] instead of wrapping: a burst of
   [max_int] steps then lasts the whole run, like one of a thousand. *)
let add_sat a b = if b > 0 && a > max_int - b then max_int else a + b

let window = function
  | Drop_burst { at; count; _ } -> (at, add_sat (add_sat at (count - 1)) drop_grace)
  | Dup_burst { at; count; _ } -> (at, add_sat at (count - 1))
  | Reorder_storm { at; len } | Blackout { at; len } -> (at, add_sat at (len - 1))
  | Crash_restart { at; _ } | Corrupt_state { at; _ } -> (at, at)

let last_fault_time t =
  List.fold_left (fun acc e -> max acc (snd (window e))) 0 t.events

let target_name = function To_receiver -> "->R" | To_sender -> "->S"

let proc_name = function Sender -> "S" | Receiver -> "R"

let pp_event ppf = function
  | Drop_burst { at; target; count } ->
      Format.fprintf ppf "drop(%s)@%dx%d" (target_name target) at count
  | Dup_burst { at; target; count } ->
      Format.fprintf ppf "dup(%s)@%dx%d" (target_name target) at count
  | Reorder_storm { at; len } -> Format.fprintf ppf "storm@%dx%d" at len
  | Blackout { at; len } -> Format.fprintf ppf "blackout@%dx%d" at len
  | Crash_restart { at; who } -> Format.fprintf ppf "crash-%s@%d" (proc_name who) at
  | Corrupt_state { at; who; index } ->
      Format.fprintf ppf "corrupt-%s@%d#%d" (proc_name who) at index

let pp ppf t =
  Format.fprintf ppf "%s[%a]" t.name
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ") pp_event)
    t.events

let to_string t = Format.asprintf "%a" pp t

(* ------------------------- validation ------------------------- *)

let validate ~channel ?corrupt_space t =
  let bad e msg = Error (Format.asprintf "%a: %s" pp_event e msg) in
  let check e =
    let at, _ = window e in
    if at < 0 then bad e "negative start time"
    else
      match e with
      | Drop_burst { count; _ } when count <= 0 -> bad e "non-positive burst size"
      | Dup_burst { count; _ } when count <= 0 -> bad e "non-positive burst size"
      | (Reorder_storm { len; _ } | Blackout { len; _ }) when len <= 0 ->
          bad e "non-positive window length"
      | Drop_burst _ when not (Chan.deletes channel) ->
          bad e (Printf.sprintf "channel %s cannot delete" (Chan.kind_name channel))
      | Dup_burst _ when not (Chan.duplicates channel) ->
          bad e (Printf.sprintf "channel %s cannot duplicate" (Chan.kind_name channel))
      | Reorder_storm _ when not (Chan.reorders channel) ->
          bad e (Printf.sprintf "channel %s cannot reorder" (Chan.kind_name channel))
      | Corrupt_state { index; _ } when index < 0 -> bad e "negative corruption index"
      (* Corruption legality is a protocol capability, not a channel
         one: the caller passes the protocol's declared enumeration
         sizes ([Protocol.corrupt_space]); no seam means no corrupt
         events. *)
      | Corrupt_state { who; index; _ } -> (
          match corrupt_space with
          | None -> bad e "protocol declares no corrupted-start space"
          | Some (ns, nr) ->
              let n = match who with Sender -> ns | Receiver -> nr in
              if index >= n then
                bad e (Printf.sprintf "corruption index outside enumeration of %d" n)
              else Ok ())
      | Drop_burst _ | Dup_burst _ | Reorder_storm _ | Blackout _ | Crash_restart _ -> Ok ()
  in
  List.fold_left (fun acc e -> match acc with Error _ -> acc | Ok () -> check e) (Ok ()) t.events

(* ------------------------- generation ------------------------- *)

let random ~channel ~rng ?(max_events = 3) ?(horizon = 40) ?corrupt_space ?name () =
  (* [corrupt_space] is opt-in: adding a kind to the default pool would
     shift every draw after it and silently re-deal all the pinned
     seeded batteries (E13, soak, serve). *)
  let legal_kinds =
    [ `Blackout; `Crash ]
    @ (if Chan.deletes channel then [ `Drop ] else [])
    @ (if Chan.duplicates channel then [ `Dup ] else [])
    @ (if Chan.reorders channel then [ `Storm ] else [])
    @ (match corrupt_space with
      | Some (ns, nr) when ns > 0 || nr > 0 -> [ `Corrupt ]
      | _ -> [])
  in
  let n = 1 + Stdx.Rng.int rng (max max_events 1) in
  let event () =
    let at = Stdx.Rng.int rng (max horizon 1) in
    let target = if Stdx.Rng.bool rng then To_receiver else To_sender in
    match Stdx.Rng.pick rng legal_kinds with
    | `Drop -> Drop_burst { at; target; count = 1 + Stdx.Rng.int rng 3 }
    | `Dup -> Dup_burst { at; target; count = 1 + Stdx.Rng.int rng 3 }
    | `Storm -> Reorder_storm { at; len = 1 + Stdx.Rng.int rng 6 }
    | `Blackout -> Blackout { at; len = 1 + Stdx.Rng.int rng 6 }
    | `Crash -> Crash_restart { at; who = (if Stdx.Rng.bool rng then Sender else Receiver) }
    | `Corrupt ->
        let ns, nr = Option.get corrupt_space in
        let who = if (nr = 0 || Stdx.Rng.bool rng) && ns > 0 then Sender else Receiver in
        let n = match who with Sender -> ns | Receiver -> nr in
        Corrupt_state { at; who; index = Stdx.Rng.int rng (max n 1) }
  in
  let events =
    List.sort
      (fun a b -> compare (window a) (window b))
      (List.init n (fun _ -> event ()))
  in
  let name = match name with Some n -> n | None -> Printf.sprintf "random-%d" n in
  { name; events }

(* ------------------------- serialization ------------------------- *)

let target_to_string = function To_receiver -> "to-receiver" | To_sender -> "to-sender"

let target_of_string = function
  | "to-receiver" -> Ok To_receiver
  | "to-sender" -> Ok To_sender
  | s -> Error (Printf.sprintf "unknown fault target %S" s)

let proc_to_string = function Sender -> "sender" | Receiver -> "receiver"

let proc_of_string = function
  | "sender" -> Ok Sender
  | "receiver" -> Ok Receiver
  | s -> Error (Printf.sprintf "unknown process %S" s)

let event_to_json e =
  let open Json in
  match e with
  | Drop_burst { at; target; count } ->
      Obj
        [
          ("kind", String "drop-burst");
          ("at", Int at);
          ("target", String (target_to_string target));
          ("count", Int count);
        ]
  | Dup_burst { at; target; count } ->
      Obj
        [
          ("kind", String "dup-burst");
          ("at", Int at);
          ("target", String (target_to_string target));
          ("count", Int count);
        ]
  | Reorder_storm { at; len } ->
      Obj [ ("kind", String "reorder-storm"); ("at", Int at); ("len", Int len) ]
  | Blackout { at; len } ->
      Obj [ ("kind", String "blackout"); ("at", Int at); ("len", Int len) ]
  | Crash_restart { at; who } ->
      Obj [ ("kind", String "crash-restart"); ("at", Int at); ("who", String (proc_to_string who)) ]
  | Corrupt_state { at; who; index } ->
      Obj
        [
          ("kind", String "corrupt-state");
          ("at", Int at);
          ("who", String (proc_to_string who));
          ("index", Int index);
        ]

let to_json t =
  Json.Obj
    [ ("name", Json.String t.name); ("events", Json.List (List.map event_to_json t.events)) ]

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

let int_field j k =
  match Json.member k j with
  | Some (Json.Int v) -> Ok v
  | _ -> Error (Printf.sprintf "fault event: missing int field %S" k)

let str_field j k =
  match Json.member k j with
  | Some (Json.String v) -> Ok v
  | _ -> Error (Printf.sprintf "fault event: missing string field %S" k)

let event_of_json j =
  let* kind = str_field j "kind" in
  let* at = int_field j "at" in
  match kind with
  | "drop-burst" | "dup-burst" ->
      let* target = str_field j "target" in
      let* target = target_of_string target in
      let* count = int_field j "count" in
      Ok
        (if kind = "drop-burst" then Drop_burst { at; target; count }
         else Dup_burst { at; target; count })
  | "reorder-storm" ->
      let* len = int_field j "len" in
      Ok (Reorder_storm { at; len })
  | "blackout" ->
      let* len = int_field j "len" in
      Ok (Blackout { at; len })
  | "crash-restart" ->
      let* who = str_field j "who" in
      let* who = proc_of_string who in
      Ok (Crash_restart { at; who })
  | "corrupt-state" ->
      let* who = str_field j "who" in
      let* who = proc_of_string who in
      let* index = int_field j "index" in
      Ok (Corrupt_state { at; who; index })
  | k -> Error (Printf.sprintf "unknown fault event kind %S" k)

let of_json j =
  let* name = str_field j "name" in
  match Json.member "events" j with
  | Some (Json.List es) ->
      let* events =
        List.fold_left
          (fun acc e ->
            let* acc = acc in
            let* e = event_of_json e in
            Ok (e :: acc))
          (Ok []) es
      in
      Ok { name; events = List.rev events }
  | _ -> Error "fault plan: missing events list"
