module Trace = Kernel.Trace
module Hist = Kernel.Hist

type point = { run : int; time : int }

type t = {
  traces : Trace.t array;
  view_keys : string array array; (* receiver views, view_keys.(run).(time) *)
  classes : (string, point list) Hashtbl.t; (* receiver view key -> members *)
  s_view_keys : string array array;
  s_classes : (string, point list) Hashtbl.t;
}

let index_views traces ~keys_of =
  let classes = Hashtbl.create 1024 in
  let keys =
    Array.mapi
      (fun run trace ->
        let keys = keys_of trace in
        Array.iteri
          (fun time key ->
            let members = Option.value ~default:[] (Hashtbl.find_opt classes key) in
            Hashtbl.replace classes key ({ run; time } :: members))
          keys;
        keys)
      traces
  in
  (keys, classes)

let of_traces trace_list =
  let traces = Array.of_list trace_list in
  let view_keys, classes =
    index_views traces ~keys_of:(fun trace -> Trace.view_keys trace `Receiver ~suffix:[])
  in
  (* The sender's complete history does not include the input tape it
     was constructed with, but its *behaviour* does; to honour the
     paper's local-state semantics (the sender's state contains X) the
     sender view key also carries the input, as [Wrote] pseudo-entries:
     senders never write, so the suffix is unambiguous and the keying
     exact. *)
  let s_view_keys, s_classes =
    index_views traces ~keys_of:(fun trace ->
        Trace.view_keys trace `Sender
          ~suffix:(List.map (fun d -> Hist.Wrote d) (Array.to_list (Trace.input trace))))
  in
  { traces; view_keys; classes; s_view_keys; s_classes }

let traces t = t.traces

let n_points t =
  Array.fold_left (fun acc keys -> acc + Array.length keys) 0 t.view_keys

let points t =
  let acc = ref [] in
  Array.iteri
    (fun run keys -> Array.iteri (fun time _ -> acc := { run; time } :: !acc) keys)
    t.view_keys;
  List.rev !acc

let input_of t p = Trace.input t.traces.(p.run)

let r_view_key t p = t.view_keys.(p.run).(p.time)

let r_class t p =
  match Hashtbl.find_opt t.classes (r_view_key t p) with
  | Some members -> members
  | None -> [ p ]

let s_class t p =
  match Hashtbl.find_opt t.s_classes t.s_view_keys.(p.run).(p.time) with
  | Some members -> members
  | None -> [ p ]

let agent_class t agent p =
  match agent with `Sender -> s_class t p | `Receiver -> r_class t p

let n_classes t = Hashtbl.length t.classes

let output_length_at t p = Trace.output_length_at t.traces.(p.run) p.time
