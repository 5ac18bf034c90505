module Runner = Kernel.Runner
module Trace = Kernel.Trace

type t = {
  safe : bool;
  complete : bool;
  deadlocked : bool;
  steps : int;
  messages : int;
  first_violation : int option;
  completed_at : int option;
  recovered : bool option;
  stabilised : bool option;
}

let of_result (r : Runner.result) =
  let trace = r.Runner.trace in
  let violation = Trace.first_safety_violation trace in
  {
    safe = Option.is_none violation;
    complete = Option.is_some (Trace.completed_at trace);
    deadlocked = (r.Runner.stop = Runner.Quiescent);
    steps = r.Runner.steps;
    messages = Trace.messages_sent trace;
    first_violation = violation;
    completed_at = Trace.completed_at trace;
    recovered = None;
    stabilised = None;
  }

let all_good t = t.safe && t.complete

(* Recovery (the §5 notion made executable): the run is back to
   quiescent-and-correct within [within] steps of the last injected
   fault — it stayed safe, it completed, and the completion landed no
   later than [last_fault + within].  A run that completed before the
   fault even landed trivially recovered. *)
let assess_recovery ~last_fault ~within t =
  if last_fault < 0 then invalid_arg "assess_recovery: negative last_fault";
  if within < 0 then invalid_arg "assess_recovery: negative within";
  (* A fault time beyond the trace end means the claimed fault never
     landed inside the run; the old formula passed such runs
     vacuously (the run completed "within" a window that never
     opened).  Requiring [last_fault <= steps] makes the verdict a
     statement about a fault the run actually saw.  [within = 0]
     stays a defined boundary: recovered iff the run completed at the
     fault itself. *)
  let recovered =
    t.safe && t.complete && last_fault <= t.steps
    && match t.completed_at with Some c -> c - last_fault <= within | None -> false
  in
  { t with recovered = Some recovered }

let time_to_recover ~last_fault t =
  if last_fault < 0 then invalid_arg "time_to_recover: negative last_fault";
  if last_fault > t.steps then None
  else
    match t.completed_at with
    | Some c when t.safe -> Some (max 0 (c - last_fault))
    | Some _ | None -> None

(* Stabilisation (Dolev et al. made executable): the run began in a
   possibly-corrupted local state and must be back to safe-and-done
   within [within] steps of the start — the corrupted-start analogue
   of [assess_recovery], with the whole run as the fault window. *)
let assess_stabilisation ~within t =
  if within < 0 then invalid_arg "assess_stabilisation: negative within";
  let stabilised =
    t.safe && t.complete && match t.completed_at with Some c -> c <= within | None -> false
  in
  { t with stabilised = Some stabilised }

let time_to_stabilise t =
  match t.completed_at with Some c when t.safe -> Some c | Some _ | None -> None

let pp ppf t =
  Format.fprintf ppf "%s%s steps=%d msgs=%d"
    (if t.safe then "safe" else "UNSAFE")
    (if t.complete then ",complete" else if t.deadlocked then ",DEADLOCK" else ",incomplete")
    t.steps t.messages;
  (match t.recovered with
  | None -> ()
  | Some true -> Format.pp_print_string ppf " recovered"
  | Some false -> Format.pp_print_string ppf " NOT-RECOVERED");
  match t.stabilised with
  | None -> ()
  | Some true -> Format.pp_print_string ppf " stabilised"
  | Some false -> Format.pp_print_string ppf " NOT-STABILISED"

let to_report t =
  let module R = Stdx.Report in
  let ok =
    all_good t
    && (match t.recovered with None -> true | Some r -> r)
    && match t.stabilised with None -> true | Some s -> s
  in
  R.make ~id:"verdict" ~title:"single-run verdict" ~ok
    [
      R.Metrics
        {
          title = None;
          pairs =
            ([
               ("safe", R.bool t.safe);
               ("complete", R.bool t.complete);
               ("deadlocked", R.bool t.deadlocked);
               ("steps", R.int t.steps);
               ("messages", R.int t.messages);
               ("first_violation", R.opt_int t.first_violation);
               ("completed_at", R.opt_int t.completed_at);
             ]
            @ (match t.recovered with None -> [] | Some r -> [ ("recovered", R.bool r) ])
            @ match t.stabilised with None -> [] | Some s -> [ ("stabilised", R.bool s) ]);
        };
    ]
