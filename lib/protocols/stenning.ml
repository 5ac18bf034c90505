open Kernel

(* Wire format: data message for item [i] (0-based) is [i·domain + x_i];
   acknowledgement [k] means "items 0..k−1 all received". *)

type sender_state = {
  input : int array;
  domain : int;
  next : int; (* lowest unacknowledged item *)
}

let sender_step s event =
  let n = Array.length s.input in
  match event with
  | Event.Wake ->
      if s.next < n then (s, [ Action.Send ((s.next * s.domain) + s.input.(s.next)) ])
      else (s, [])
  | Event.Deliver ack -> if ack > s.next then ({ s with next = ack }, []) else (s, [])

type receiver_state = {
  r_domain : int;
  got : int; (* number of in-order items written *)
}

let receiver_step r event =
  match event with
  | Event.Deliver m ->
      let seq = m / r.r_domain and data = m mod r.r_domain in
      if seq = r.got then ({ r with got = r.got + 1 }, [ Action.Write data; Action.Send (r.got + 1) ])
      else (r, [ Action.Send r.got ])
  | Event.Wake -> if r.got > 0 then (r, [ Action.Send r.got ]) else (r, [])

let protocol_on channel ~domain ~max_len =
  {
    Protocol.name =
      Printf.sprintf "stenning(d=%d,n<=%d,%s)" domain max_len (Channel.Chan.kind_name channel);
    sender_alphabet = max 1 (max_len * domain);
    receiver_alphabet = max_len + 1;
    channel;
    make_sender =
      (fun ~input ->
        if Array.length input > max_len then
          invalid_arg
            (Printf.sprintf "stenning: input length %d exceeds max_len %d" (Array.length input)
               max_len);
        Proc.make ~state:{ input; domain; next = 0 } ~step:sender_step ());
    make_receiver = (fun () -> Proc.make ~state:{ r_domain = domain; got = 0 } ~step:receiver_step ());
    symmetry = None;
    (* The corrupted-start space: every value the sender's [next]
       register can hold.  The receiver's whole local state is [got],
       which mirrors the output-tape length — by the {!Protocol.perturb}
       convention that component is environment-anchored, so the
       receiver enumeration is the clean state alone.  Stenning is safe
       from every corrupted start (unbounded headers make stale frames
       unambiguous) but does NOT converge: a sender corrupted past the
       receiver's count retransmits item [next] forever while the
       receiver nacks a count the sender refuses to rewind to — the
       sweep shows safe-but-incomplete points and the witness search
       closes clean. *)
    perturb =
      Some
        {
          Protocol.sender_states =
            (fun ~input ->
              let n = Array.length input in
              List.init (n + 1) (fun next ->
                  {
                    Protocol.label = Printf.sprintf "S:next=%d" next;
                    proc = Proc.make ~state:{ input; domain; next } ~step:sender_step ();
                  }));
          receiver_states =
            (fun ~written ->
              [
                {
                  Protocol.label = "R:clean";
                  proc =
                    Proc.make ~state:{ r_domain = domain; got = written } ~step:receiver_step ();
                };
              ]);
        };
  }

let protocol ~domain ~max_len = protocol_on Channel.Chan.Reorder_del ~domain ~max_len

let () =
  Kernel.Registry.register_protocol ~name:"stenning"
    ~doc:"Stenning with unbounded headers"
    (fun cfg ->
      let { Kernel.Registry.channel; domain; max_len; _ } = cfg in
      Ok (protocol_on channel ~domain ~max_len))
