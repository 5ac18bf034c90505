open Kernel

let encode_msg ~domain ~index ~data = (index * domain) + data

let decode_msg ~domain m = (m / domain, m mod domain)

type sender_state = {
  input : int array;
  domain : int;
  window : int;
  base : int; (* lowest unacknowledged item; resynced by every ack *)
  cursor : int; (* next outstanding frame to (re)transmit *)
}

let sender_step s event =
  let n = Array.length s.input in
  match event with
  | Event.Wake ->
      if n = 0 then (s, [])
      else if s.base >= n then
        (* Keep-alive past the end (cf. {!Stenning_stab}): poke the
           receiver so a corrupted base cannot go quiescent. *)
        (s, [ Action.Send (encode_msg ~domain:s.domain ~index:(n - 1) ~data:s.input.(n - 1)) ])
      else begin
        let hi = min (s.base + s.window) n in
        let cursor = if s.cursor < s.base || s.cursor >= hi then s.base else s.cursor in
        ( { s with cursor = cursor + 1 },
          [ Action.Send (encode_msg ~domain:s.domain ~index:cursor ~data:s.input.(cursor)) ] )
      end
  | Event.Deliver ack ->
      (* The ack is the receiver's absolute written count: adopt it
         wholesale.  Unlike stock Go-Back-N's modular cumulative ack —
         whose tiny sequence space is exactly what aliases under a
         scrambled base — the absolute resync makes any corrupted
         window position recoverable in one round trip. *)
      if ack >= 0 && ack <= n then ({ s with base = ack }, []) else (s, [])

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

let protocol_on channel ~domain ~max_len ~window =
  if window < 1 then invalid_arg "Gbn_stab.protocol: window must be >= 1";
  {
    Protocol.name =
      Printf.sprintf "gbn-stab(w=%d,d=%d,n<=%d,%s)" window domain max_len
        (Channel.Chan.kind_name channel);
    sender_alphabet = max 1 (max_len * domain);
    receiver_alphabet = max_len + 1;
    channel;
    make_sender =
      (fun ~input ->
        if Array.length input > max_len then
          invalid_arg
            (Printf.sprintf "gbn-stab: input length %d exceeds max_len %d" (Array.length input)
               max_len);
        Proc.make ~state:{ input; domain; window; base = 0; cursor = 0 } ~step:sender_step ());
    make_receiver =
      (fun () ->
        Proc.make ~state:{ r_domain = domain; written = 0; started = false }
          ~step:receiver_step ());
    (* Frames are (index, data) with the data slot generic;
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
    (* The corrupted-start space: every window base (cursor re-anchored
       to it) and the receiver's started flag; the receiver's [written]
       mirrors the tape and is anchored by the {!Protocol.perturb}
       convention.  Same resync argument as {!Stenning_stab} — writes
       are gated on an exact index match, the first ack repositions any
       base — but the window pipelines up to [window] frames per round
       trip, so the stabilisation-time curve grows measurably slower
       with the input length than the stop-and-wait variants (E17). *)
    perturb =
      Some
        {
          Protocol.sender_states =
            (fun ~input ->
              List.init (Array.length input + 1) (fun base ->
                  {
                    Protocol.label = Printf.sprintf "S:base=%d" base;
                    proc =
                      Proc.make
                        ~state:{ input; domain; window; base; cursor = base }
                        ~step:sender_step ();
                  }));
          receiver_states =
            (fun ~written ->
              List.map
                (fun started ->
                  {
                    Protocol.label = (if started then "R:started" else "R:fresh");
                    proc =
                      Proc.make
                        ~state:{ r_domain = domain; written; started }
                        ~step:receiver_step ();
                  })
                [ false; true ]);
        };
  }

let protocol ~domain ~max_len ~window =
  protocol_on Channel.Chan.Fifo_lossy ~domain ~max_len ~window

let () =
  Kernel.Registry.register_protocol ~name:"gbn-stab"
    ~doc:"self-stabilising Go-Back-N (absolute headers and acks, windowed)" (fun cfg ->
      Ok
        (protocol_on cfg.Kernel.Registry.channel ~domain:cfg.Kernel.Registry.domain
           ~max_len:cfg.Kernel.Registry.max_len ~window:cfg.Kernel.Registry.window))
