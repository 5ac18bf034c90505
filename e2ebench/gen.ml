(* The serve-loop workload's input: seeded batches of `stp serve` job
   specs, as the JSON text a client would hand over.  Batch [index] of
   seed [seed] is a pure function of the two, so every run with one seed
   sends the same bytes. *)

module Json = Stdx.Json
module Rng = Stdx.Rng
module Plan = Faults.Plan

let jobs_per_batch = 100

(* The longest input; abp-stab and stenning size their headers by it. *)
let max_len = 6
let max_steps = 1_000

(* (protocol, channel): each protocol on a channel it is meant for,
   except counting-resend, which the paper's zoo keeps as a protocol a
   reordering channel defeats.  Job [i] of every batch is of family
   [i mod 7] and carries a fault plan when [i mod 4 = 0], so batches of
   every seed hold the same mix and cost about the same. *)
let families =
  [|
    ("abp", "fifo-lossy");
    ("abp-stab", "fifo-lossy");
    ("norep", "dup");
    ("norep", "del");
    ("stenning", "fifo-lossy");
    ("go-back-n", "fifo-lossy");
    ("counting-resend", "dup");
  |]

let deletes channel = channel = "fifo-lossy" || channel = "del"

(* Whether a job without a fault plan must end safe and complete. *)
let expect_clean_success protocol = protocol <> "counting-resend"

let plan rng ~protocol ~channel =
  let pick_who () = if Rng.bool rng then Plan.Sender else Plan.Receiver in
  let kinds =
    (if deletes channel then [ `Drop ] else [])
    @ [ `Crash ]
    @ if protocol = "abp-stab" then [ `Corrupt ] else []
  in
  (* Draws are let-bound one by one: the order of evaluation inside a
     record expression is unspecified. *)
  let event =
    match Rng.pick rng kinds with
    | `Drop ->
        let at = Rng.int rng 20 in
        let target = if Rng.bool rng then Plan.To_receiver else Plan.To_sender in
        let count = 1 + Rng.int rng 3 in
        Plan.Drop_burst { at; target; count }
    | `Crash ->
        let at = Rng.int rng 30 in
        Plan.Crash_restart { at; who = pick_who () }
    | `Corrupt ->
        (* abp-stab enumerates max_len + 1 sender cursors and two
           receiver states. *)
        let at = Rng.int rng 30 in
        let who = pick_who () in
        let size = match who with Plan.Sender -> max_len + 1 | Plan.Receiver -> 2 in
        Plan.Corrupt_state { at; who; index = Rng.int rng size }
  in
  Plan.to_json { Plan.name = "fault"; events = [ event ] }

(* counting-resend drops a repeated item, so a run with two equal
   items in a row can never complete and would idle out its step
   budget; its inputs avoid them. *)
let no_repeats rng len =
  let rec go prev k =
    if k = 0 then []
    else
      let x = (prev + 1 + Rng.int rng 2) mod 3 in
      x :: go x (k - 1)
  in
  go (Rng.int rng 3) len

let job rng i =
  let protocol, channel = families.(i mod Array.length families) in
  let len = 2 + Rng.int rng (max_len - 1) in
  let domain, input =
    match protocol with
    | "norep" ->
        let a = Array.init len Fun.id in
        Rng.shuffle rng a;
        (len, Array.to_list a)
    | "counting-resend" -> (3, no_repeats rng len)
    | _ -> (2, List.init len (fun _ -> Rng.int rng 2))
  in
  let strategy =
    Rng.pick rng
      (if deletes channel then [ "round-robin"; "fair-random"; "drop:0.1"; "drop:0.3" ]
       else [ "round-robin"; "fair-random" ])
  in
  let seed = 1 + Rng.int rng 1_000_000 in
  let plan = if i mod 4 = 0 then [ ("plan", plan rng ~protocol ~channel) ] else [] in
  Json.Obj
    ([
       ("label", Json.String (Printf.sprintf "j%03d" i));
       ("protocol", Json.String protocol);
       ("channel", Json.String channel);
       ("domain", Json.Int domain);
       ("max_len", Json.Int max_len);
       ("input", Json.List (List.map (fun x -> Json.Int x) input));
       ("strategy", Json.String strategy);
       ("seed", Json.Int seed);
       ("max_steps", Json.Int max_steps);
     ]
    @ plan)

let batch ~seed ~index =
  let rng = Rng.split (Rng.create seed) index in
  Json.to_string (Json.Obj [ ("jobs", Json.List (List.init jobs_per_batch (job rng))) ])
