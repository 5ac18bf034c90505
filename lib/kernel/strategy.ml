module Chan = Channel.Chan

type t = {
  name : string;
  choose : Stdx.Rng.t -> Protocol.t -> Global.t -> Move.t list -> Move.t option;
}

(* Strategies are stateless: anything they need to remember (time,
   drop counts) is read back from the global state's counters, so one
   strategy value can drive any number of runs. *)

let is_wake = function Move.Wake_sender | Move.Wake_receiver -> true | _ -> false

let is_delivery = function
  | Move.Deliver_to_receiver _ | Move.Deliver_to_sender _ -> true
  | _ -> false

let is_drop = function Move.Drop_to_receiver _ | Move.Drop_to_sender _ -> true | _ -> false

let fair_random ?(deliver_weight = 4) ?(wake_weight = 2) ?(drop_weight = 0) () =
  (* A move of weight [<= 0] is never chosen; the draw is one
     [Rng.int] over the positive weights' total, walked in list order. *)
  let weight m =
    let w =
      if is_wake m then wake_weight else if is_delivery m then deliver_weight else drop_weight
    in
    if w > 0 then w else 0
  in
  let rec total acc = function [] -> acc | m :: rest -> total (acc + weight m) rest in
  let rec pick target acc = function
    | [] -> assert false
    | m :: rest ->
        let acc = acc + weight m in
        if target < acc then m else pick target acc rest
  in
  {
    name = "fair-random";
    choose =
      (fun rng _p _g enabled ->
        match total 0 enabled with
        | 0 -> None
        | total -> Some (pick (Stdx.Rng.int rng total) 0 enabled));
  }

let delivers_to side m =
  match (side, m) with
  | `R, Move.Deliver_to_receiver _ | `S, Move.Deliver_to_sender _ -> true
  | _ -> false

let symbol = function
  | Move.Deliver_to_receiver x | Move.Deliver_to_sender x -> x
  | _ -> invalid_arg "Strategy.symbol: not a delivery"

(* How many deliveries to [side] carry a symbol below [x] ([strict])
   or at most [x]. *)
let rec rank side ~strict x n = function
  | [] -> n
  | m :: rest ->
      let below =
        delivers_to side m && (let y = symbol m in if strict then y < x else y <= x)
      in
      rank side ~strict x (if below then n + 1 else n) rest

let rec count_deliveries side n = function
  | [] -> n
  | m :: rest -> count_deliveries side (if delivers_to side m then n + 1 else n) rest

(* The delivery to [side] whose rank range in [enabled] covers index
   [k] — the element at index [k] of the candidates sorted by symbol,
   found without building the sorted list (equal symbols are equal
   moves, so ties do not matter). *)
let rec select side k enabled = function
  | [] -> invalid_arg "Strategy.select"
  | m :: rest ->
      if
        delivers_to side m
        && rank side ~strict:true (symbol m) 0 enabled <= k
        && k < rank side ~strict:false (symbol m) 0 enabled
      then m
      else select side k enabled rest

(* Rotate through the deliverable set by time so that, on duplication
   channels (whose deliverable set never shrinks), every message keeps
   being delivered — always taking the smallest would starve the rest.
   With no delivery to make, the phase falls back to [fallback]. *)
let rotating_delivery_to side ~time ~fallback enabled =
  match count_deliveries side 0 enabled with
  | 0 -> fallback
  | n -> select side (time / 4 mod n) enabled enabled

let round_robin =
  {
    name = "round-robin";
    choose =
      (fun _rng _p (g : Global.t) enabled ->
        let time = g.Global.time in
        (* Wake S, deliver to R, wake R, deliver to S; a phase with no
           delivery to make falls back to the wake of its half. *)
        match time mod 4 with
        | 0 -> Some Move.Wake_sender
        | 1 -> Some (rotating_delivery_to `R ~time ~fallback:Move.Wake_sender enabled)
        | 2 -> Some Move.Wake_receiver
        | _ -> Some (rotating_delivery_to `S ~time ~fallback:Move.Wake_receiver enabled));
  }

let newest_first =
  {
    name = "newest-first";
    choose =
      (fun _rng _p (g : Global.t) enabled ->
        let deliveries =
          List.filter_map
            (fun m ->
              match m with
              | Move.Deliver_to_receiver x -> Some (x, m)
              | Move.Deliver_to_sender x -> Some (x, m)
              | _ -> None)
            enabled
        in
        (* Largest symbols first, but rotate through the whole set over
           time: a pure "always newest" rule would starve the rest on
           duplication channels, whose deliverable set never shrinks. *)
        match List.sort (fun (a, _) (b, _) -> Int.compare b a) deliveries with
        | [] -> if g.Global.time mod 2 = 0 then Some Move.Wake_sender else Some Move.Wake_receiver
        | sorted when g.Global.time mod 3 <> 0 ->
            let _, m = List.nth sorted (g.Global.time / 9 mod List.length sorted) in
            Some m
        | _ -> if g.Global.time mod 2 = 0 then Some Move.Wake_sender else Some Move.Wake_receiver);
  }

let dup_flood ?(burst = 3) () =
  {
    name = Printf.sprintf "dup-flood(%d)" burst;
    choose =
      (fun rng _p (g : Global.t) enabled ->
        let deliveries = List.filter is_delivery enabled in
        (* Within a burst window re-deliver; outside it let a process
           take a step so the system makes progress. *)
        if g.Global.time mod (burst + 2) < burst && deliveries <> [] then
          Some (Stdx.Rng.pick rng deliveries)
        else if Stdx.Rng.bool rng then Some Move.Wake_sender
        else Some Move.Wake_receiver);
  }

let total_dropped (g : Global.t) =
  Chan.dropped_total g.Global.chan_sr + Chan.dropped_total g.Global.chan_rs

let rec count_drops n = function
  | [] -> n
  | m :: rest -> count_drops (if is_drop m then n + 1 else n) rest

let rec nth_drop k = function
  | [] -> invalid_arg "Strategy.nth_drop"
  | m :: rest -> if is_drop m then if k = 0 then m else nth_drop (k - 1) rest else nth_drop k rest

(* [enabled] without its drops; the longest drop-free tail is shared,
   so a list with no drop comes back as it is. *)
let rec without_drops = function
  | [] -> []
  | m :: rest as l ->
      let rest' = without_drops rest in
      if is_drop m then rest' else if rest' == rest then l else m :: rest'

let drop_rate p inner =
  {
    name = Printf.sprintf "%s+drop(%.2f)" inner.name p;
    choose =
      (fun rng proto g enabled ->
        let drops = count_drops 0 enabled in
        if drops > 0 && Stdx.Rng.float rng < p then
          Some (nth_drop (Stdx.Rng.int rng drops) enabled)
        else inner.choose rng proto g (without_drops enabled));
  }

let drop_first n inner =
  {
    name = Printf.sprintf "%s+drop-first(%d)" inner.name n;
    choose =
      (fun rng proto g enabled ->
        if total_dropped g < n && count_drops 0 enabled > 0 then Some (nth_drop 0 enabled)
        else inner.choose rng proto g (without_drops enabled));
  }

let drop_after ~at n inner =
  {
    name = Printf.sprintf "%s+drop-after(%d,%d)" inner.name at n;
    choose =
      (fun rng proto (g : Global.t) enabled ->
        if g.Global.time >= at && total_dropped g < n && count_drops 0 enabled > 0 then
          Some (nth_drop 0 enabled)
        else inner.choose rng proto g (without_drops enabled));
  }

let scripted moves =
  let arr = Array.of_list moves in
  {
    name = "scripted";
    choose =
      (fun _rng _p (g : Global.t) enabled ->
        let i = g.Global.time in
        if i >= Array.length arr then None
        else begin
          let m = arr.(i) in
          if List.exists (Move.equal m) enabled then Some m else None
        end);
  }

let forms =
  [ "fair-random"; "round-robin"; "newest-first"; "dup-flood"; "drop:P"; "drop-first:N" ]

(* The one name->strategy parser: the CLI's --strategy flag and the
   serve daemon's job specs both resolve through here. *)
let of_string s =
  match String.split_on_char ':' s with
  | [ "fair-random" ] -> Ok (fair_random ())
  | [ "round-robin" ] -> Ok round_robin
  | [ "newest-first" ] -> Ok newest_first
  | [ "dup-flood" ] -> Ok (dup_flood ())
  | [ "drop"; p ] -> (
      match float_of_string_opt p with
      | Some p when p >= 0.0 && p <= 1.0 -> Ok (drop_rate p (fair_random ()))
      | Some _ -> Error "drop:P needs a probability in [0, 1]"
      | None -> Error "drop:P needs a float probability")
  | [ "drop-first"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 0 -> Ok (drop_first n (fair_random ()))
      | Some _ -> Error "drop-first:N needs a count of at least 0"
      | None -> Error "drop-first:N needs an integer")
  | _ -> Error (Printf.sprintf "unknown strategy %S" s)

let starve_receiver ~until inner =
  {
    name = Printf.sprintf "%s+starve-R(%d)" inner.name until;
    choose =
      (fun rng proto (g : Global.t) enabled ->
        if g.Global.time < until then begin
          let allowed =
            List.filter (function Move.Deliver_to_receiver _ -> false | _ -> true) enabled
          in
          inner.choose rng proto g allowed
        end
        else inner.choose rng proto g enabled);
  }
