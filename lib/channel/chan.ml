module Multiset = Stdx.Multiset
module Deque = Stdx.Deque
module Codec = Stdx.Codec
module IntSet = Set.Make (Int)

type kind = Perfect | Fifo_lossy | Reorder_dup | Reorder_del | Bounded_reorder of { lag : int }

let kind_name = function
  | Perfect -> "perfect"
  | Fifo_lossy -> "fifo-lossy"
  | Reorder_dup -> "reorder+dup"
  | Reorder_del -> "reorder+del"
  | Bounded_reorder { lag } -> Printf.sprintf "reorder<=%d+del" lag

(* Parse-canonical names: the short CLI spellings, distinct from the
   display names above so table output does not move. *)
let to_string = function
  | Perfect -> "perfect"
  | Fifo_lossy -> "fifo-lossy"
  | Reorder_dup -> "dup"
  | Reorder_del -> "del"
  | Bounded_reorder { lag } -> Printf.sprintf "lag:%d" lag

let of_string s =
  match s with
  | "perfect" -> Some Perfect
  | "fifo-lossy" | "fifo" | "lossy" -> Some Fifo_lossy
  | "dup" | "reorder+dup" | "reorder-dup" -> Some Reorder_dup
  | "del" | "reorder+del" | "reorder-del" -> Some Reorder_del
  | _ ->
      let lag_of prefix =
        let pl = String.length prefix in
        if String.length s > pl && String.sub s 0 pl = prefix then
          match int_of_string_opt (String.sub s pl (String.length s - pl)) with
          | Some lag when lag >= 0 -> Some (Bounded_reorder { lag })
          | Some _ | None -> None
        else None
      in
      (match lag_of "lag:" with Some _ as r -> r | None -> lag_of "lag=")

let reorders = function
  | Reorder_dup | Reorder_del -> true
  | Bounded_reorder { lag } -> lag > 0
  | Perfect | Fifo_lossy -> false

let deletes = function
  | Fifo_lossy | Reorder_del | Bounded_reorder _ -> true
  | Perfect | Reorder_dup -> false

let duplicates = function
  | Reorder_dup -> true
  | Perfect | Fifo_lossy | Reorder_del | Bounded_reorder _ -> false

type body =
  | Fifo of int Deque.t (* Perfect and Fifo_lossy *)
  | Dup of IntSet.t (* ever-sent set *)
  | Del of Multiset.t (* in-flight copies *)
  | Lag of { lag : int; flight : (int * int) list }
      (* send order, oldest first; each copy carries the number of
         times it has already been overtaken *)

type t = {
  k : kind;
  body : body;
  sent : Multiset.t; (* cumulative counters, not part of the transition state *)
  delivered : Multiset.t;
  dropped : Multiset.t;
}

let create k =
  let body =
    match k with
    | Perfect | Fifo_lossy -> Fifo Deque.empty
    | Reorder_dup -> Dup IntSet.empty
    | Reorder_del -> Del Multiset.empty
    | Bounded_reorder { lag } -> Lag { lag; flight = [] }
  in
  { k; body; sent = Multiset.empty; delivered = Multiset.empty; dropped = Multiset.empty }

let kind t = t.k

let send t m =
  let body =
    match t.body with
    | Fifo q -> Fifo (Deque.push_back q m)
    | Dup s -> Dup (IntSet.add m s)
    | Del ms -> Del (Multiset.add ms m)
    | Lag l -> Lag { l with flight = l.flight @ [ (m, 0) ] }
  in
  { t with body; sent = Multiset.add t.sent m }

(* Delivering (or dropping past) a copy overtakes every older copy
   still in flight; a copy may be overtaken at most [lag] times.  So a
   copy is reachable exactly when every strictly older copy has been
   overtaken fewer than [lag] times — [lag = 0] degenerates to FIFO. *)
let lag_reachable lag flight =
  let rec go blocked acc = function
    | [] -> List.rev acc
    | (m, c) :: rest ->
        let acc = if blocked then acc else (m, c) :: acc in
        go (blocked || c >= lag) acc rest
  in
  go false [] flight

let rec overtake older rest =
  match older with [] -> rest | (m, c) :: older -> overtake older ((m, c + 1) :: rest)

(* Remove the first reachable copy of [x], charging one overtake to
   every older copy left behind; [older] holds the copies passed so
   far, newest first. *)
let rec lag_take lag x older = function
  | [] -> None
  | ((m, c) as copy) :: rest ->
      if m = x then Some (overtake older rest)
      else if c >= lag then None (* this copy blocks everything younger *)
      else lag_take lag x (copy :: older) rest

(* A drop destroys the oldest copy of [x] in place, wherever it sits:
   nothing overtakes anything, so no counters change. *)
let rec lag_drop x older = function
  | [] -> None
  | ((m, _) as copy) :: rest ->
      if m = x then Some (List.rev_append older rest) else lag_drop x (copy :: older) rest

let deliverable t =
  match t.body with
  | Fifo q -> ( match Deque.peek_front q with Some m -> [ m ] | None -> [])
  | Dup s -> IntSet.elements s
  | Del ms -> Multiset.support ms
  | Lag { lag; flight } -> List.sort_uniq Int.compare (List.map fst (lag_reachable lag flight))

(* [deliver] and [drop] decide legality from the body operation
   itself — the FIFO head, set membership, a multiset removal, the lag
   walks — rather than by scanning [deliverable]/[droppable].  The two
   must agree: [Sim.enabled] lists moves from the latter. *)
let delivered t body m = Some { t with body; delivered = Multiset.add t.delivered m }

let deliver t m =
  match t.body with
  | Fifo q -> (
      match Deque.pop_front q with Some (h, q') when h = m -> delivered t (Fifo q') m | _ -> None)
  | Dup s -> if IntSet.mem m s then delivered t t.body m (* delivery consumes nothing *) else None
  | Del ms -> ( match Multiset.remove ms m with Some ms' -> delivered t (Del ms') m | None -> None)
  | Lag l -> (
      match lag_take l.lag m [] l.flight with
      | Some flight -> delivered t (Lag { l with flight }) m
      | None -> None)

let can_deliver t m = List.mem m (deliverable t)

let droppable t =
  match (t.k, t.body) with
  | Fifo_lossy, Fifo q -> ( match Deque.peek_front q with Some m -> [ m ] | None -> [])
  | Reorder_del, Del ms -> Multiset.support ms
  | Bounded_reorder _, Lag { flight; _ } ->
      (* Deletion can strike any in-flight copy regardless of order. *)
      List.sort_uniq Int.compare (List.map fst flight)
  | (Perfect | Fifo_lossy | Reorder_dup | Reorder_del | Bounded_reorder _), _ -> []

let dropped t body m = Some { t with body; dropped = Multiset.add t.dropped m }

let drop t m =
  match (t.k, t.body) with
  | Fifo_lossy, Fifo q -> (
      match Deque.pop_front q with Some (h, q') when h = m -> dropped t (Fifo q') m | _ -> None)
  | Reorder_del, Del ms -> (
      match Multiset.remove ms m with Some ms' -> dropped t (Del ms') m | None -> None)
  | Bounded_reorder _, Lag l -> (
      match lag_drop m [] l.flight with
      | Some flight -> dropped t (Lag { l with flight }) m
      | None -> None)
  | (Perfect | Fifo_lossy | Reorder_dup | Reorder_del | Bounded_reorder _), _ -> None

let dlvrble t =
  match t.body with
  | Fifo q -> Deque.fold (fun acc m -> Multiset.add acc m) Multiset.empty q
  | Dup s -> IntSet.fold (fun m acc -> Multiset.add acc m) s Multiset.empty
  | Del ms -> ms
  | Lag { flight; _ } -> Multiset.of_list (List.map fst flight)

let sent_count t m = Multiset.count t.sent m
let delivered_count t m = Multiset.count t.delivered m
let dropped_count t m = Multiset.count t.dropped m

let sent_total t = Multiset.cardinal t.sent
let delivered_total t = Multiset.cardinal t.delivered
let dropped_total t = Multiset.cardinal t.dropped

let observed t =
  List.sort_uniq Int.compare
    (Multiset.support t.sent @ Multiset.support t.delivered @ Multiset.support t.dropped)

let debt t =
  match t.body with
  | Dup _ ->
      (* Property 1c: every send must eventually be matched by a
         delivery of the same message; extra duplicated deliveries can
         cover the debt. *)
      Multiset.fold
        (fun m n acc -> acc + max 0 (n - Multiset.count t.delivered m))
        t.sent 0
  | Fifo q -> Deque.length q
  | Del ms -> Multiset.cardinal ms
  | Lag { flight; _ } -> List.length flight

(* Binary body fingerprint, written straight into the caller's codec:
   a tag byte for the body form, a count, then the contents as
   varints.  The count makes each form a prefix code and the tag keeps
   the forms apart, so the emission is injective and self-delimiting:
   it needs no length prefix inside a longer key. *)
let rec emit_copies c = function
  | [] -> ()
  | (m, overtaken) :: rest ->
      Codec.add_varint c m;
      Codec.add_varint c overtaken;
      emit_copies c rest

let emit c t =
  match t.body with
  | Fifo q ->
      Codec.add_char c 'F';
      Codec.add_varint c (Deque.length q);
      Deque.fold (fun () m -> Codec.add_varint c m) () q
  | Dup s ->
      Codec.add_char c 'U';
      Codec.add_varint c (IntSet.cardinal s);
      IntSet.iter (fun m -> Codec.add_varint c m) s
  | Del ms ->
      Codec.add_char c 'D';
      Multiset.emit c ms
  | Lag { flight; _ } ->
      Codec.add_char c 'L';
      Codec.add_varint c (List.length flight);
      emit_copies c flight

let encode t =
  let c = Codec.create ~size:24 () in
  emit c t;
  Codec.contents c

(* The body fingerprint plus the cumulative counters: everything about
   the channel that any engine decision reads (deliverable/droppable
   sets, send-cap totals, debt).  Unlike [emit], two values equal
   under this key may still differ in their construction history. *)
let emit_run_key c t =
  emit c t;
  Multiset.emit c t.sent;
  Multiset.emit c t.delivered;
  Multiset.emit c t.dropped

let pp ppf t =
  match t.body with
  | Fifo q ->
      Format.fprintf ppf "%s[%a]" (kind_name t.k)
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ") Format.pp_print_int)
        (Deque.to_list q)
  | Dup s ->
      Format.fprintf ppf "%s{%a}" (kind_name t.k)
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ") Format.pp_print_int)
        (IntSet.elements s)
  | Del ms -> Format.fprintf ppf "%s%a" (kind_name t.k) Multiset.pp ms
  | Lag { flight; _ } ->
      Format.fprintf ppf "%s[%a]" (kind_name t.k)
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
           (fun ppf (m, c) -> Format.fprintf ppf "%d^%d" m c))
        flight
