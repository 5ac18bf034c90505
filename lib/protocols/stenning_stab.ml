open Kernel

let encode_msg ~domain ~index ~data = (index * domain) + data

let decode_msg ~domain m = (m / domain, m mod domain)

type sender_state = {
  input : int array;
  domain : int;
  next : int; (* cursor being transmitted; resynced by every ack *)
}

let sender_step s event =
  let n = Array.length s.input in
  match event with
  | Event.Wake ->
      if n = 0 then (s, [])
      else
        (* Keep-alive past the end: a corrupted cursor at [n] opposite
           a receiver that heard nothing would otherwise go quiescent
           incomplete.  Retransmitting the last item pokes the
           receiver into re-acking its true count. *)
        let i = if s.next < n then s.next else n - 1 in
        (s, [ Action.Send (encode_msg ~domain:s.domain ~index:i ~data:s.input.(i)) ])
  | Event.Deliver ack ->
      (* Stock Stenning only moves forward ([ack > next]) — exactly the
         rule that wedges a corrupted-high cursor forever.  The
         stabilising variant adopts the receiver's count wholesale,
         rewinding when the ack says so.  Over a reordering channel a
         stale ack can drag the cursor backwards, costing retransmits
         but never safety, and the stale copies in flight are finite. *)
      if ack >= 0 && ack <= n then ({ s with next = ack }, []) else (s, [])

type receiver_state = {
  r_domain : int;
  got : int; (* mirror of the output-tape length *)
  started : bool;
}

let receiver_step r event =
  match event with
  | Event.Deliver m ->
      let seq, data = decode_msg ~domain:r.r_domain m in
      if seq = r.got then
        ( { r with got = r.got + 1; started = true },
          [ Action.Write data; Action.Send (r.got + 1) ] )
      else ({ r with started = true }, [ Action.Send r.got ])
  | Event.Wake -> if r.started then (r, [ Action.Send r.got ]) else (r, [])

let protocol_on channel ~domain ~max_len =
  {
    Protocol.name =
      Printf.sprintf "stenning-stab(d=%d,n<=%d,%s)" domain max_len
        (Channel.Chan.kind_name channel);
    sender_alphabet = max 1 (max_len * domain);
    receiver_alphabet = max_len + 1;
    channel;
    make_sender =
      (fun ~input ->
        if Array.length input > max_len then
          invalid_arg
            (Printf.sprintf "stenning-stab: input length %d exceeds max_len %d" (Array.length input)
               max_len);
        Proc.make ~state:{ input; domain; next = 0 } ~step:sender_step ());
    make_receiver =
      (fun () ->
        Proc.make ~state:{ r_domain = domain; got = 0; started = false } ~step:receiver_step ());
    (* Data messages are (index, data) with the data slot generic;
       acknowledgements carry only the written count. *)
    symmetry =
      Some
        {
          Symm.on_sender_msg =
            (fun pi m ->
              let index, data = decode_msg ~domain m in
              encode_msg ~domain ~index ~data:(pi data));
          on_receiver_msg = (fun _ count -> count);
        };
    (* The corrupted-start space: every cursor position the sender's
       register can hold and the receiver's started flag; the
       receiver's [got] mirrors the append-only tape and is anchored
       by the {!Protocol.perturb} convention.  Safety survives every
       point (writes are gated on an exact index match against the
       true count) and the first ack to arrive resyncs any cursor, so
       the sweep pins a finite worst-case time-to-stabilise where the
       stock protocol deadlocks safe-but-incomplete. *)
    perturb =
      Some
        {
          Protocol.sender_states =
            (fun ~input ->
              List.init (Array.length input + 1) (fun next ->
                  {
                    Protocol.label = Printf.sprintf "S:next=%d" next;
                    proc = Proc.make ~state:{ input; domain; next } ~step:sender_step ();
                  }));
          receiver_states =
            (fun ~written ->
              List.map
                (fun started ->
                  {
                    Protocol.label = (if started then "R:started" else "R:fresh");
                    proc =
                      Proc.make
                        ~state:{ r_domain = domain; got = written; started }
                        ~step:receiver_step ();
                  })
                [ false; true ]);
        };
  }

let protocol ~domain ~max_len = protocol_on Channel.Chan.Reorder_del ~domain ~max_len

let () =
  Kernel.Registry.register_protocol ~name:"stenning-stab"
    ~doc:"self-stabilising Stenning (absolute resync over reordering)" (fun cfg ->
      Ok
        (protocol_on cfg.Kernel.Registry.channel ~domain:cfg.Kernel.Registry.domain
           ~max_len:cfg.Kernel.Registry.max_len))
