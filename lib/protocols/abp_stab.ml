open Kernel

let encode_msg ~domain ~index ~data = (index * domain) + data

let decode_msg ~domain m = (m / domain, m mod domain)

type sender_state = {
  input : int array;
  domain : int;
  cursor : int; (* index of the item being transmitted; resynced by every ack *)
}

let sender_step s event =
  let n = Array.length s.input in
  match event with
  | Event.Wake ->
      if n = 0 then (s, [])
      else
        (* Past the end the sender keeps retransmitting the last item
           as a keep-alive: a receiver whose corrupted flags left it
           behind gets poked, mismatches, and re-acks its true count —
           without this a corrupted cursor at [n] deadlocks opposite a
           silent receiver. *)
        let i = if s.cursor < n then s.cursor else n - 1 in
        (s, [ Action.Send (encode_msg ~domain:s.domain ~index:i ~data:s.input.(i)) ])
  | Event.Deliver ack ->
      (* The ack is the receiver's written count: adopt it wholesale
         (clamped to the input length).  Unlike ABP's relative bit
         flip, the absolute resync is what makes the protocol
         stabilising — any corrupted cursor is overwritten by the first
         ack that arrives. *)
      if ack >= 0 && ack <= n then ({ s with cursor = ack }, []) else (s, [])

type receiver_state = {
  r_domain : int;
  written : int; (* mirror of the output-tape length *)
  started : bool;
}

let receiver_step r event =
  match event with
  | Event.Deliver m ->
      let index, data = decode_msg ~domain:r.r_domain m in
      if index = r.written then
        ( { r with written = r.written + 1; started = true },
          [ Action.Write data; Action.Send (r.written + 1) ] )
      else ({ r with started = true }, [ Action.Send r.written ])
  | Event.Wake -> if r.started then (r, [ Action.Send r.written ]) else (r, [])

let protocol_on channel ~domain ~max_len =
  {
    Protocol.name =
      Printf.sprintf "abp-stab(d=%d,n<=%d,%s)" domain max_len (Channel.Chan.kind_name channel);
    sender_alphabet = max_len * domain;
    receiver_alphabet = max_len + 1;
    channel;
    make_sender =
      (fun ~input ->
        if Array.length input > max_len then
          invalid_arg
            (Printf.sprintf "abp-stab: input length %d exceeds max_len %d" (Array.length input)
               max_len);
        Proc.make ~state:{ input; domain; cursor = 0 } ~step:sender_step ());
    make_receiver =
      (fun () ->
        Proc.make ~state:{ r_domain = domain; written = 0; started = false } ~step:receiver_step ());
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
       register can hold (including past-the-end values a fault can
       fabricate) and the receiver's started flag.  The receiver's
       written count is excluded by the {!Protocol.perturb} convention
       — it mirrors the append-only output tape, which the corruption
       model cannot touch.  Safety survives every point (writes are
       gated on an exact index match against the true count, and the
       sender only ever sends truthful (i, x_i) pairs), and the first
       ack resyncs any cursor, so the sweep shows a finite worst-case
       time-to-stabilise where stock ABP exhibits a violation. *)
    perturb =
      Some
        {
          Protocol.sender_states =
            (fun ~input ->
              List.init (max_len + 1) (fun cursor ->
                  {
                    Protocol.label = Printf.sprintf "S:cursor=%d" cursor;
                    proc = Proc.make ~state:{ input; domain; cursor } ~step:sender_step ();
                  }));
          receiver_states =
            (fun ~written ->
              List.map
                (fun started ->
                  {
                    Protocol.label =
                      (if started then "R:started" else "R:fresh");
                    proc =
                      Proc.make
                        ~state:{ r_domain = domain; written; started }
                        ~step:receiver_step ();
                  })
                [ false; true ]);
        };
  }

let protocol ~domain ~max_len = protocol_on Channel.Chan.Fifo_lossy ~domain ~max_len

let () =
  Kernel.Registry.register_protocol ~name:"abp-stab"
    ~doc:"self-stabilising indexed ABP (absolute resync)" (fun cfg ->
      Ok
        (protocol_on cfg.Kernel.Registry.channel ~domain:cfg.Kernel.Registry.domain
           ~max_len:cfg.Kernel.Registry.max_len))
