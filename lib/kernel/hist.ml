type entry = Woke | Got of int | Sent of int | Wrote of int

(* Reversed entry list.  The encoding is computed on demand: appends
   stay O(1), and the knowledge layer — the only heavy consumer of
   encodings — calls [encode] once per point. *)
type t = { rev : entry list; len : int }

let empty = { rev = []; len = 0 }

let length t = t.len

let add t e = { rev = e :: t.rev; len = t.len + 1 }

let add_event t = function
  | Event.Wake -> add t Woke
  | Event.Deliver m -> add t (Got m)

let add_action t = function
  | Action.Send m -> add t (Sent m)
  | Action.Write d -> add t (Wrote d)

let to_list t = List.rev t.rev

let add_entry_code buf = function
  | Woke -> Buffer.add_string buf "w;"
  | Got m ->
      Buffer.add_char buf 'g';
      Buffer.add_string buf (string_of_int m);
      Buffer.add_char buf ';'
  | Sent m ->
      Buffer.add_char buf 's';
      Buffer.add_string buf (string_of_int m);
      Buffer.add_char buf ';'
  | Wrote d ->
      Buffer.add_char buf 'o';
      Buffer.add_string buf (string_of_int d);
      Buffer.add_char buf ';'

let encode t =
  let buf = Buffer.create (t.len * 3) in
  List.iter (add_entry_code buf) (to_list t);
  Buffer.contents buf

let equal a b = a.len = b.len && a.rev = b.rev

let pp_entry ppf = function
  | Woke -> Format.pp_print_string ppf "wake"
  | Got m -> Format.fprintf ppf "got %d" m
  | Sent m -> Format.fprintf ppf "sent %d" m
  | Wrote d -> Format.fprintf ppf "wrote %d" d

let pp ppf t =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ") pp_entry)
    (to_list t)
