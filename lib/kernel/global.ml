module Chan = Channel.Chan

type t = {
  input : int array;
  sender : Proc.t;
  receiver : Proc.t;
  chan_sr : Chan.t;
  chan_rs : Chan.t;
  output_rev : int list;
  output_len : int;
  output_ok : bool;
  time : int;
}

let initial ?sender ?receiver (p : Protocol.t) ~input =
  {
    input;
    sender = (match sender with Some s -> s | None -> p.Protocol.make_sender ~input);
    receiver = (match receiver with Some r -> r | None -> p.Protocol.make_receiver ());
    chan_sr = Chan.create p.Protocol.channel;
    chan_rs = Chan.create p.Protocol.channel;
    output_rev = [];
    output_len = 0;
    output_ok = true;
    time = 0;
  }

let output t = List.rev t.output_rev

let output_length t = t.output_len

(* [output_len] and [output_ok] are maintained incrementally by the
   simulator on every Write, so the per-step safety check is O(1)
   instead of rescanning the output tape. *)
let safety_ok t = t.output_ok

let complete t = output_length t = Array.length t.input

(* The hot fingerprint path: a process blob is a memo blit (each
   distinct process value is serialised once) and a channel writes its
   few body varints in place, so emitting into the engine's reusable
   codec allocates no string. *)
let emit c t =
  Proc.emit c t.sender;
  Proc.emit c t.receiver;
  Chan.emit c t.chan_sr;
  Chan.emit c t.chan_rs;
  Stdx.Codec.add_varint c (output_length t)

let encode t =
  let c = Stdx.Codec.create ~size:128 () in
  emit c t;
  Stdx.Codec.contents c

(* Everything a state-space engine's *decisions* can read: the
   fingerprint plus the channel counters (send caps, debt) and the
   safety bit.  The clock is excluded — a write-only accumulator that
   never feeds back into process or channel evolution — so equal keys
   certify that stepping either state produces successors that are
   again equal under this key and indistinguishable to every search. *)
let emit_run_key c t =
  Proc.emit c t.sender;
  Proc.emit c t.receiver;
  Chan.emit_run_key c t.chan_sr;
  Chan.emit_run_key c t.chan_rs;
  Stdx.Codec.add_varint c (output_length t);
  Stdx.Codec.add_byte c (if t.output_ok then 1 else 0)
