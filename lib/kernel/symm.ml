type perm = int array

type equivariance = {
  on_sender_msg : (int -> int) -> int -> int;
  on_receiver_msg : (int -> int) -> int -> int;
}

let data_messages = { on_sender_msg = (fun pi m -> pi m); on_receiver_msg = (fun pi m -> pi m) }

let identity m = Array.init m (fun i -> i)

let apply p i = if i >= 0 && i < Array.length p then p.(i) else i

let invert p =
  let inv = Array.make (Array.length p) 0 in
  Array.iteri (fun i j -> inv.(j) <- i) p;
  inv

let apply_seq p xs = List.map (apply p) xs

let is_perm p =
  let n = Array.length p in
  let seen = Array.make n false in
  Array.for_all
    (fun j ->
      j >= 0 && j < n
      &&
      if seen.(j) then false
      else begin
        seen.(j) <- true;
        true
      end)
    p

(* Streaming first-occurrence relabelling: the first distinct symbol
   fed in becomes 0, the second 1, and so on.  This is the whole
   canonicalisation — the canonical member of a sequence's orbit under
   alphabet permutations is its image under this map, because any
   permutation that produces a lexicographically-least label pattern
   must assign labels in first-occurrence order. *)
module Relabel = struct
  type t = { tbl : (int, int) Hashtbl.t; mutable next : int }

  let create () = { tbl = Hashtbl.create 8; next = 0 }

  let map t v =
    match Hashtbl.find_opt t.tbl v with
    | Some c -> c
    | None ->
        let c = t.next in
        Hashtbl.add t.tbl v c;
        t.next <- c + 1;
        c
end

let canon_seqs ~m xss =
  let r = Relabel.create () in
  let css =
    List.map
      (List.map (fun v ->
           if v < 0 || v >= m then invalid_arg "Symm.canon_seqs: symbol outside [0, m)";
           Relabel.map r v))
      xss
  in
  (* Complete the first-occurrence assignment to a full permutation of
     [0, m): symbols that never occurred take the remaining labels in
     ascending order, so equal occurring parts always yield equal
     permutations. *)
  let p = Array.make m (-1) in
  Hashtbl.iter (fun v c -> p.(v) <- c) r.Relabel.tbl;
  let next = ref r.Relabel.next in
  Array.iteri
    (fun v c ->
      if c < 0 then begin
        p.(v) <- !next;
        incr next
      end)
    p;
  (css, p)

let canon_pair ~m x1 x2 =
  match canon_seqs ~m [ x1; x2 ] with
  | [ c1; c2 ], p -> ((c1, c2), p)
  | _ -> assert false

let relabel_move eq pi move =
  match move with
  (* Corrupt indices name positions in the perturb enumeration, not
     alphabet symbols, so relabelling passes them through — protocols
     that declare both [symmetry] and [perturb] must keep their
     enumerations data-independent for this to be sound. *)
  | Move.Wake_sender | Move.Wake_receiver | Move.Restart_sender | Move.Restart_receiver
  | Move.Corrupt_sender _ | Move.Corrupt_receiver _ ->
      move
  | Move.Deliver_to_receiver m -> Move.Deliver_to_receiver (eq.on_sender_msg pi m)
  | Move.Drop_to_receiver m -> Move.Drop_to_receiver (eq.on_sender_msg pi m)
  | Move.Deliver_to_sender m -> Move.Deliver_to_sender (eq.on_receiver_msg pi m)
  | Move.Drop_to_sender m -> Move.Drop_to_sender (eq.on_receiver_msg pi m)
