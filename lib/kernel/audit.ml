module Chan = Channel.Chan
module Multiset = Stdx.Multiset

type channel_report = {
  sent : int;
  delivered : int;
  dropped : int;
  in_flight : int;
  conserved : bool;
  no_creation : bool;
  discipline : bool;
  debt : int;
}

type t = {
  forward : channel_report;
  backward : channel_report;
  ok : bool;
}

let channel_report chan =
  let sent = Chan.sent_total chan in
  let delivered = Chan.delivered_total chan in
  let dropped = Chan.dropped_total chan in
  let in_flight = Multiset.cardinal (Chan.dlvrble chan) in
  let kind = Chan.kind chan in
  (* On a duplication channel re-delivery is the point; in-flight is a
     0/1 support set, so conservation is per-message reachability, not
     counting.  Elsewhere the exact count balance must hold. *)
  let conserved =
    if Chan.duplicates kind then dropped = 0 else delivered + dropped + in_flight = sent
  in
  let messages = Chan.observed chan in
  let no_creation =
    List.for_all
      (fun m -> Chan.delivered_count chan m = 0 || Chan.sent_count chan m > 0)
      messages
  in
  let discipline =
    if Chan.duplicates kind then List.for_all (fun m -> Chan.dropped_count chan m = 0) messages
    else
      List.for_all (fun m -> Chan.delivered_count chan m <= Chan.sent_count chan m) messages
  in
  {
    sent;
    delivered;
    dropped;
    in_flight;
    conserved;
    no_creation;
    discipline;
    debt = Chan.debt chan;
  }

let run trace =
  let final = Trace.final trace in
  let forward = channel_report final.Global.chan_sr in
  let backward = channel_report final.Global.chan_rs in
  let ok_of r = r.conserved && r.no_creation && r.discipline in
  { forward; backward; ok = ok_of forward && ok_of backward }
