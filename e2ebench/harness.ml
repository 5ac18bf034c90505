(* What every workload shares: failure accounting, timing one
   operation, the repeat checks on counts, set-up probes, and the
   output.  A workload supplies its seeded inputs, a set-up step, one
   operation, and (for the traced run) its per-layer metrics. *)

module Report = Stdx.Report
module Json = Stdx.Json

let now = Unix.gettimeofday

(* ------------------------- failures ------------------------- *)

exception Wrong of string

let expect cond fmt = Printf.ksprintf (fun s -> if not cond then raise (Wrong s)) fmt

type tally = { mutable attempted : int; mutable failed : int; mutable errors : string list }

let tally () = { attempted = 0; failed = 0; errors = [] }

let fail tally what msg =
  tally.failed <- tally.failed + 1;
  if List.length tally.errors < 20 then tally.errors <- (what ^ ": " ^ msg) :: tally.errors

(* One attempted operation.  A raised exception or a failed output check
   counts as a failed operation and never ends the run. *)
let attempt tally what f =
  tally.attempted <- tally.attempted + 1;
  match f () with
  | v -> Some v
  | exception Wrong msg ->
      fail tally what msg;
      None
  | exception e ->
      fail tally what (Printexc.to_string e);
      None

(* ------------------------- metrics ------------------------- *)

type metric = { name : string; unit_ : string; value : Report.cell }

let count name n = { name; unit_ = "count"; value = Report.int n }
let bytes name n = { name; unit_ = "B"; value = Report.int n }
let num name unit_ x = { name; unit_; value = Report.float ~decimals:3 x }
let ms name seconds = num name "ms" (seconds *. 1e3)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------- workloads ------------------------- *)

type counts = (string * int) list
(** What an operation counted: states, hits, steps, bytes, minor words.
    Every count repeats exactly when the same input runs again. *)

type sample = { index : int; seconds : float; counts : counts; major_gcs : int }

module type WORKLOAD = sig
  type t

  val name : string

  val prepare : seed:int -> unit -> t
  (** [prepare ~seed] generates the workload's inputs from the seed
      (untimed); applying the result is the set-up the program pays
      before its first operation: registry resolution and construction. *)

  val op : t -> Spans.t option -> int -> unit -> counts
  (** [op t tracer i] performs operation [i] and returns its check,
      which the harness calls outside the timed region.  The check
      raises {!Wrong} on a wrong output and returns the op's counts. *)

  val repeat_class : t -> int -> int
  (** Operations in one class run the same input, so their counts must
      agree exactly. *)

  val layers :
    t -> Spans.t -> plain:sample list -> traced:sample list -> tally -> metric list
  (** The traced run's per-layer metrics, from the spans and samples of
      the alternating loop plus any extra passes the workload makes. *)
end

let minor_words () = int_of_float (Gc.minor_words ())
let major_gcs () = (Gc.quick_stat ()).Gc.major_collections

(* Time [W.op] alone; its check runs afterwards, untimed. *)
let timed_op (type a) (module W : WORKLOAD with type t = a) (t : a) tracer index =
  let w0 = minor_words () and g0 = major_gcs () in
  let t0 = now () in
  let check =
    match tracer with
    | None -> W.op t None index
    | Some tr ->
        Spans.set_op tr index;
        Spans.record tr "op" (fun () -> W.op t tracer index)
  in
  let seconds = now () -. t0 in
  let words = minor_words () - w0 and major_gcs = major_gcs () - g0 in
  let counts = check () in
  { index; seconds; counts = ("gc.minor_words", words) :: counts; major_gcs }

let run_op w t tally tracer index =
  attempt tally (Printf.sprintf "op %d" index) (fun () -> timed_op w t tracer index)

(* Counts must repeat exactly within a repeat class. *)
let check_repeats (type a) (module W : WORKLOAD with type t = a) (t : a) tally what samples =
  let first = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let cls = W.repeat_class t s.index in
      match Hashtbl.find_opt first cls with
      | None -> Hashtbl.add first cls s
      | Some s0 ->
          tally.attempted <- tally.attempted + 1;
          if s.counts <> s0.counts then
            let differing =
              List.filter_map
                (fun (k, v) ->
                  match List.assoc_opt k s0.counts with
                  | Some v0 when v0 = v -> None
                  | v0 ->
                      Some
                        (Printf.sprintf "%s %s vs %d" k
                           (match v0 with Some v0 -> string_of_int v0 | None -> "-")
                           v))
                s.counts
            in
            fail tally what
              (Printf.sprintf "op %d repeats op %d with other counts: %s" s.index s0.index
                 (String.concat ", " differing)))
    samples

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM line in /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> scan ()
      in
      scan ())

(* ------------------------- set-up ------------------------- *)

(* One set-up: inputs are generated first, then the clock runs over the
   set-up step and one warm-up operation, operation [index]. *)
let setup (type a) (module W : WORKLOAD with type t = a) ~seed ~index =
  let ready = W.prepare ~seed in
  let t0 = now () in
  let t = ready () in
  let check = W.op t None index in
  let seconds = now () -. t0 in
  ignore (check () : counts);
  (t, seconds)

(* Set-up is cold only once per process, so further samples come from
   fresh copies of this executable.  Probe [index] warms up on operation
   [index], so the samples cover as many inputs as there are probes. *)
let setup_probe ~workload ~seed ~index =
  let args =
    [|
      Sys.executable_name;
      "--setup-probe";
      string_of_int index;
      "--workload";
      workload;
      "--seed";
      string_of_int seed;
    |]
  in
  let ic = Unix.open_process_args_in args.(0) args in
  let line = In_channel.input_line ic in
  match (Unix.close_process_in ic, line) with
  | Unix.WEXITED 0, Some l -> float_of_string l
  | _ -> raise (Wrong "set-up probe failed")

(* How many set-ups a run samples: at least five, and up to 25 while
   they take under a sixth of the run. *)
let want_setup ~n ~spent ~seconds = n < 5 || (n < 25 && spent < seconds /. 6.0)

(* ------------------------- output ------------------------- *)

(* The contract's result line: one JSON object on one line.  Json's
   printer indents; its strings never hold a raw newline, so joining the
   trimmed lines changes only whitespace. *)
let result_line ~correct ~attempted ~failed metrics =
  let value = function
    | Report.Int n -> Json.Int n
    | Report.Float { value; _ } -> Json.Float value
    | c -> Json.String (Report.cell_text c)
  in
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun m -> (m.name, Json.Obj [ ("value", value m.value); ("unit", Json.String m.unit_) ]))
             metrics) );
    ]
  |> Json.to_string |> String.split_on_char '\n' |> List.map String.trim |> String.concat ""

let results_dir = "e2ebench-results"

let write_artifact ~file reports =
  if not (Sys.file_exists results_dir) then Sys.mkdir results_dir 0o755;
  let path = Filename.concat results_dir file in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Json.to_string (Report.set_to_json reports));
      Out_channel.output_char oc '\n');
  path
