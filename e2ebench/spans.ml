(* Spans for the traced run.  The benchmark wraps its own calls into
   each layer in a span (name, start, end, parent, op id); spans are kept
   in memory and written out when the run ends.  The program itself
   carries no tracing. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  op : int;  (** the operation the span belongs to *)
  name : string;
  start : float;
  stop : float;
}

type t = {
  mutable finished : span list;
  mutable open_ids : int list;
  mutable next : int;
  mutable current_op : int;
}

let create () = { finished = []; open_ids = []; next = 0; current_op = 0 }
let set_op t op = t.current_op <- op

let record t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.open_ids with p :: _ -> p | [] -> -1 in
  t.open_ids <- id :: t.open_ids;
  let start = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let stop = Unix.gettimeofday () in
      t.open_ids <- List.tl t.open_ids;
      t.finished <- { id; parent; op = t.current_op; name; start; stop } :: t.finished)
    f

(* [f] inside a span named [name] when tracing, bare when not. *)
let span tr name f = match tr with None -> f () | Some t -> record t name f

let all t = List.sort (fun a b -> compare a.id b.id) t.finished
let duration s = s.stop -. s.start

(* A span's self time: its duration minus the part of [start, stop] its
   children cover.  Children may overlap one another (parallel work), so
   the covered part is the measure of the union of their intervals, not
   the sum of their durations. *)
let self_time ~start ~stop children =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a start and b = Float.min b stop in
        if b > a then Some (a, b) else None)
      children
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = Float.max a reach in
        if b > a then (acc +. (b -. a), b) else (acc, reach))
      (0.0, Float.neg_infinity)
      (List.sort compare clipped)
  in
  stop -. start -. covered

let children t =
  let kids = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add kids s.parent (s.start, s.stop)) t.finished;
  fun s -> Hashtbl.find_all kids s.id

let named t name = List.filter (fun s -> s.name = name) (all t)
let durations t name = List.map duration (named t name)

(* Each span named [name], with its self time. *)
let self_times t name =
  let kids = children t in
  List.map (fun s -> (s, self_time ~start:s.start ~stop:s.stop (kids s))) (named t name)

(* Every span as one table row, times in microseconds from the first
   span's start. *)
let to_item t =
  let module R = Stdx.Report in
  let spans = all t in
  let origin = List.fold_left (fun m s -> Float.min m s.start) Float.infinity spans in
  let kids = children t in
  let us x = R.float ~decimals:1 (x *. 1e6) in
  let b =
    R.table_cols ~title:"spans"
      [
        R.column "op" ~align:R.Right;
        R.column "id" ~align:R.Right;
        R.column "parent" ~align:R.Right;
        R.column "name" ~align:R.Left;
        R.column "start" ~unit_:"us" ~align:R.Right;
        R.column "duration" ~unit_:"us" ~align:R.Right;
        R.column "self" ~unit_:"us" ~align:R.Right;
      ]
  in
  List.iter
    (fun s ->
      R.row b
        [
          R.int s.op;
          R.int s.id;
          R.int s.parent;
          R.str s.name;
          us (s.start -. origin);
          us (duration s);
          us (self_time ~start:s.start ~stop:s.stop (kids s));
        ])
    spans;
  R.finish b
