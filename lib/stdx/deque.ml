type 'a t = { front : 'a list; back : 'a list; len : int }
(* [front] is in order, [back] is reversed; elements flow front <- back.
   Invariant: [front] is empty only when the whole deque is, so the
   head is always [front]'s head and [peek_front] never reverses. *)

let empty = { front = []; back = []; len = 0 }

let is_empty t = t.len = 0

let length t = t.len

let push_back t x =
  match t.front with
  | [] -> { front = [ x ]; back = []; len = 1 }
  | _ -> { t with back = x :: t.back; len = t.len + 1 }

let push_front t x = { t with front = x :: t.front; len = t.len + 1 }

let pop_front t =
  match t.front with
  | [] -> None
  | [ x ] -> Some (x, { front = List.rev t.back; back = []; len = t.len - 1 })
  | x :: front -> Some (x, { t with front; len = t.len - 1 })

let peek_front t = match t.front with x :: _ -> Some x | [] -> None

let to_list t = t.front @ List.rev t.back

let of_list xs = { front = xs; back = []; len = List.length xs }

let fold f init t = List.fold_left f (List.fold_left f init t.front) (List.rev t.back)
