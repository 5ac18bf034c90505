module Chan = Channel.Chan

exception Model_violation of string

(* [f] over [xs], consed onto [tail]: each enabled move is allocated
   once, in its final place. *)
let rec prepend f xs tail = match xs with [] -> tail | x :: rest -> f x :: prepend f rest tail

let enabled (_p : Protocol.t) (g : Global.t) =
  Move.Wake_sender :: Move.Wake_receiver
  :: prepend (fun m -> Move.Deliver_to_receiver m) (Chan.deliverable g.chan_sr)
       (prepend (fun m -> Move.Deliver_to_sender m) (Chan.deliverable g.chan_rs)
          (prepend (fun m -> Move.Drop_to_receiver m) (Chan.droppable g.chan_sr)
             (prepend (fun m -> Move.Drop_to_sender m) (Chan.droppable g.chan_rs) [])))

let check_action ~is_sender ~alphabet action =
  match Protocol.validate_action ~is_sender ~alphabet action with
  | Ok () -> ()
  | Error msg -> raise (Model_violation msg)

(* Route the sender's actions: every send goes onto [chan_sr]. *)
let rec route_sender alphabet chan_sr = function
  | [] -> chan_sr
  | action :: rest -> (
      check_action ~is_sender:true ~alphabet action;
      match action with
      | Action.Send m -> route_sender alphabet (Chan.send chan_sr m) rest
      | Action.Write _ -> assert false)

(* Step the sender with [event] (its inbound channel already updated
   to [chan_rs]); the successor is built once, with the clock
   advanced. *)
let step_sender (p : Protocol.t) (g : Global.t) chan_rs event =
  let sender, actions = Proc.step g.sender event in
  let chan_sr = route_sender p.Protocol.sender_alphabet g.chan_sr actions in
  ({ g with sender; chan_sr; chan_rs; time = g.time + 1 }, actions)

(* Route the receiver's actions into the successor of [g]: sends go
   onto [chan_rs], writes extend the output tape.  This is the one
   place the tape grows: [output_len] counts the writes and
   [output_ok] stays true while every write matches the input item at
   its position. *)
let rec route_receiver alphabet (g : Global.t) receiver chan_sr chan_rs output_rev output_len
    output_ok = function
  | [] -> { g with receiver; chan_sr; chan_rs; output_rev; output_len; output_ok; time = g.time + 1 }
  | action :: rest -> (
      check_action ~is_sender:false ~alphabet action;
      match action with
      | Action.Send m ->
          route_receiver alphabet g receiver chan_sr (Chan.send chan_rs m) output_rev output_len
            output_ok rest
      | Action.Write d ->
          route_receiver alphabet g receiver chan_sr chan_rs (d :: output_rev) (output_len + 1)
            (output_ok && output_len < Array.length g.input && g.input.(output_len) = d)
            rest)

let step_receiver (p : Protocol.t) (g : Global.t) chan_sr event =
  let receiver, actions = Proc.step g.receiver event in
  ( route_receiver p.Protocol.receiver_alphabet g receiver chan_sr g.chan_rs g.output_rev
      g.output_len g.output_ok actions,
    actions )

let transition (p : Protocol.t) (g : Global.t) move =
  match move with
  | Move.Wake_sender -> step_sender p g g.chan_rs Event.Wake
  | Move.Wake_receiver -> step_receiver p g g.chan_sr Event.Wake
  | Move.Deliver_to_receiver m -> (
      match Chan.deliver g.chan_sr m with
      | None -> raise (Model_violation (Printf.sprintf "message %d not deliverable to R" m))
      | Some chan_sr -> step_receiver p g chan_sr (Event.Deliver m))
  | Move.Deliver_to_sender m -> (
      match Chan.deliver g.chan_rs m with
      | None -> raise (Model_violation (Printf.sprintf "message %d not deliverable to S" m))
      | Some chan_rs -> step_sender p g chan_rs (Event.Deliver m))
  | Move.Drop_to_receiver m -> (
      match Chan.drop g.chan_sr m with
      | None -> raise (Model_violation (Printf.sprintf "message %d not droppable (to R)" m))
      | Some chan_sr -> ({ g with chan_sr; time = g.time + 1 }, []))
  | Move.Drop_to_sender m -> (
      match Chan.drop g.chan_rs m with
      | None -> raise (Model_violation (Printf.sprintf "message %d not droppable (to S)" m))
      | Some chan_rs -> ({ g with chan_rs; time = g.time + 1 }, []))
  (* Crash-restart faults: the process loses its local state and
     comes back up in its initial state; the channels keep every
     in-flight copy, and the step has no actions, so the recorded
     histories (the observer's record, not the process's memory) gain
     no entry.  These moves are never listed by [enabled] — only a
     fault injector plays them. *)
  | Move.Restart_sender ->
      ({ g with sender = p.Protocol.make_sender ~input:g.input; time = g.time + 1 }, [])
  | Move.Restart_receiver ->
      ({ g with receiver = p.Protocol.make_receiver (); time = g.time + 1 }, [])
  (* State corruption: replace the process's local state with entry
     [i] of the protocol's declared corrupted-start enumeration.
     Like the restarts, channels and histories are untouched and the
     move is never listed by [enabled].  A protocol without a
     [perturb] seam — or an index outside the enumeration — is a
     model violation, not a silent no-op: a fault plan that names a
     corruption the protocol cannot express must fail loudly. *)
  | Move.Corrupt_sender i -> (
      match p.Protocol.perturb with
      | None ->
          raise (Model_violation "corrupt S: protocol declares no corrupted-start space")
      | Some pe -> (
          let cs = pe.Protocol.sender_states ~input:g.input in
          match List.nth_opt cs i with
          | None ->
              raise
                (Model_violation
                   (Printf.sprintf "corrupt S: index %d outside enumeration of %d" i
                      (List.length cs)))
          | Some c -> ({ g with sender = c.Protocol.proc; time = g.time + 1 }, [])))
  | Move.Corrupt_receiver i -> (
      match p.Protocol.perturb with
      | None ->
          raise (Model_violation "corrupt R: protocol declares no corrupted-start space")
      | Some pe -> (
          (* The written-count convention: the receiver's mirror of
             the output tape is environment-anchored, so a mid-run
             corruption is drawn from the enumeration at the live
             tape length — the fault scrambles phase flags and
             buffers around a mirror it cannot touch. *)
          let cs = pe.Protocol.receiver_states ~written:(Global.output_length g) in
          match List.nth_opt cs i with
          | None ->
              raise
                (Model_violation
                   (Printf.sprintf "corrupt R: index %d outside enumeration of %d" i
                      (List.length cs)))
          | Some c -> ({ g with receiver = c.Protocol.proc; time = g.time + 1 }, [])))

let apply p g move = fst (transition p g move)

let wake_only_complete (p : Protocol.t) (g : Global.t) enabled =
  match enabled with
  | [ Move.Wake_sender; Move.Wake_receiver ] ->
      (* Quiescent iff waking either process is a no-op. *)
      let after_s = apply p g Move.Wake_sender in
      let after_r = apply p g Move.Wake_receiver in
      (* [Proc.step] returns the parent process value unchanged on a
         self-loop, so a quiescent wake leaves the process physically
         equal — the common case, checked without serialising
         anything.  Only a state that actually moved falls back to
         comparing the (memoised) encodings. *)
      let same_proc (a : Proc.t) (b : Proc.t) =
        a == b || String.equal (Proc.encode a) (Proc.encode b)
      in
      let silent (before : Global.t) (after : Global.t) =
        Chan.sent_total after.chan_sr = Chan.sent_total before.chan_sr
        && Chan.sent_total after.chan_rs = Chan.sent_total before.chan_rs
        && Global.output_length after = Global.output_length before
        && same_proc after.sender before.sender
        && same_proc after.receiver before.receiver
      in
      silent g after_s && silent g after_r
  | _ -> false
