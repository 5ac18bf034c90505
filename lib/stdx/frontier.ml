(* A FIFO of ints, varint-packed into a rotating pool of codec chunks,
   with an optional out-of-core spill mode.

   The joint attack BFS used to queue boxed [(int * int)] keys through
   [Stdlib.Queue]: six words of cell + tuple per enqueue, all of it
   minor-GC traffic scanned on every collection.  Here each pushed int
   is a zigzag varint appended to the current write chunk (typically
   1–2 bytes for interned ids); exhausted read chunks are reset and
   recycled as future write chunks, so a search's whole frontier
   traffic reuses a handful of fixed buffers.  Full chunks wait in a
   [Stdlib.Queue]; it sees one push per chunk, not per id.

   Spill mode makes the FIFO memory-oblivious: when keeping one more
   chunk resident would exceed [mem_budget_bytes], the full write
   chunk's bytes are appended to an anonymous temp file instead and a
   [Disk] marker takes its place in the pending queue.  Because chunks
   are written and consumed in strict FIFO order the file is purely
   sequential in both directions, and because a varint never straddles
   a chunk boundary (the rotation check runs before each append) a
   paged-in chunk decodes exactly like a resident one.  The file is
   unlinked the moment it is opened, so no failure path can leak it. *)

type entry = Mem of Codec.t | Disk of { off : int; len : int }

type stats = {
  peak_bytes : int;
  peak_len : int;
  peak_resident_bytes : int;
  spilled_bytes : int;
  spill_chunks : int;
}

type t = {
  chunk_bytes : int;  (* rotation threshold for the write chunk *)
  chunk_cap : int;  (* fixed chunk capacity: threshold + worst varint *)
  mem_budget : int;  (* resident-byte budget; 0 = never spill *)
  free_cap : int;  (* max drained chunks retained for reuse *)
  mutable rd : Codec.t;  (* chunk being consumed *)
  mutable rpos : int;  (* read offset into [rd] *)
  mutable wr : Codec.t;  (* chunk being filled; always distinct from [rd] *)
  pending : entry Queue.t;  (* full chunks between [rd] and [wr] *)
  mutable pending_mem : int;  (* [Mem] entries currently in [pending] *)
  mutable free : Codec.t list;  (* drained chunks awaiting reuse *)
  mutable free_n : int;
  mutable len : int;  (* ints stored *)
  mutable bytes : int;  (* encoded bytes stored (resident or spilled) *)
  mutable spill_fd : Unix.file_descr option;  (* lazily opened, unlinked *)
  mutable spill_woff : int;  (* next spill write offset *)
  mutable peak_bytes : int;
  mutable peak_len : int;
  mutable peak_resident : int;
  mutable spilled_bytes : int;
  mutable spill_chunks : int;
}

(* Chunks are sized so [add_varint]'s worst case (10 bytes) fits past
   the rotation threshold without growing the buffer — capacity is
   then a compile-time-constant per frontier, which keeps the resident
   accounting exact. *)
let cap_of chunk_bytes = chunk_bytes + 16

let create ?(chunk_bytes = 8192) ?(mem_budget_bytes = 0) () =
  let chunk_cap = cap_of chunk_bytes in
  {
    chunk_bytes;
    chunk_cap;
    mem_budget = mem_budget_bytes;
    free_cap = 8;
    rd = Codec.create ~size:chunk_cap ();
    rpos = 0;
    wr = Codec.create ~size:chunk_cap ();
    pending = Queue.create ();
    pending_mem = 0;
    free = [];
    free_n = 0;
    len = 0;
    bytes = 0;
    spill_fd = None;
    spill_woff = 0;
    peak_bytes = 0;
    peak_len = 0;
    peak_resident = 2 * chunk_cap;
    spilled_bytes = 0;
    spill_chunks = 0;
  }

let is_empty t = t.len = 0

let resident_chunks t = 2 + t.pending_mem + t.free_n

let note_resident t =
  let r = t.chunk_cap * resident_chunks t in
  if r > t.peak_resident then t.peak_resident <- r

let rec write_exact fd buf pos len =
  if len > 0 then begin
    let n = Unix.write fd buf pos len in
    write_exact fd buf (pos + n) (len - n)
  end

let rec read_exact fd buf pos len =
  if len > 0 then begin
    let n = Unix.read fd buf pos len in
    if n = 0 then invalid_arg "Frontier: truncated spill file";
    read_exact fd buf (pos + n) (len - n)
  end

let spill_file t =
  match t.spill_fd with
  | Some fd -> fd
  | None ->
      let path = Filename.temp_file "stp_frontier" ".spill" in
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0o600 in
      (* Unlink immediately: the kernel reclaims the space when the fd
         closes (or the process exits), so no failure path leaks it. *)
      (try Sys.remove path with Sys_error _ -> ());
      t.spill_fd <- Some fd;
      fd

(* The write chunk is full.  Keep it resident when the budget allows
   (rotating it into [pending] and starting a fresh chunk), else spill
   its bytes to the file and reuse the same buffer — the resident set
   never grows past the point the budget was first hit. *)
let rotate_wr t =
  let must_spill =
    t.mem_budget > 0
    &&
    (* Keeping costs one more resident chunk unless a free one exists;
       [rd] + [wr] are always resident, so that is the budget floor. *)
    let keep = resident_chunks t + if t.free_n > 0 then 0 else 1 in
    keep * t.chunk_cap > max t.mem_budget (2 * t.chunk_cap)
  in
  if must_spill then begin
    let fd = spill_file t in
    let len = Codec.length t.wr in
    ignore (Unix.lseek fd t.spill_woff Unix.SEEK_SET);
    write_exact fd (Codec.buffer t.wr) 0 len;
    Queue.add (Disk { off = t.spill_woff; len }) t.pending;
    t.spill_woff <- t.spill_woff + len;
    t.spilled_bytes <- t.spilled_bytes + len;
    t.spill_chunks <- t.spill_chunks + 1;
    Codec.reset t.wr
  end
  else begin
    Queue.add (Mem t.wr) t.pending;
    t.pending_mem <- t.pending_mem + 1;
    (match t.free with
    | c :: rest ->
        t.free <- rest;
        t.free_n <- t.free_n - 1;
        t.wr <- c
    | [] -> t.wr <- Codec.create ~size:t.chunk_cap ());
    note_resident t
  end

let push t v =
  if Codec.length t.wr >= t.chunk_bytes then rotate_wr t;
  let before = Codec.length t.wr in
  Codec.add_varint t.wr v;
  t.bytes <- t.bytes + (Codec.length t.wr - before);
  t.len <- t.len + 1;
  if t.bytes > t.peak_bytes then t.peak_bytes <- t.bytes;
  if t.len > t.peak_len then t.peak_len <- t.len

let free_chunk t c =
  Codec.reset c;
  if t.free_n < t.free_cap then begin
    t.free <- c :: t.free;
    t.free_n <- t.free_n + 1
  end
(* else drop it — the pool is bounded, so a drained sweep does not
   retain its worst-case chunk memory *)

(* [rd] is drained: move to the next chunk in FIFO order — the oldest
   pending chunk (paging it in from the spill file if it lives there),
   or the write chunk itself when nothing is pending. *)
let advance_rd t =
  Codec.reset t.rd;
  (if Queue.is_empty t.pending then begin
     let drained = t.rd in
     t.rd <- t.wr;
     t.wr <- drained
   end
   else
     match Queue.pop t.pending with
     | Mem c ->
         t.pending_mem <- t.pending_mem - 1;
         free_chunk t t.rd;
         t.rd <- c
     | Disk { off; len } ->
         (* Reuse [rd]'s own buffer as the page-in target; spilled
            chunks never exceed [chunk_cap], so this never grows. *)
         let fd =
           match t.spill_fd with Some fd -> fd | None -> assert false
         in
         Codec.set_length t.rd len;
         ignore (Unix.lseek fd off Unix.SEEK_SET);
         read_exact fd (Codec.buffer t.rd) 0 len);
  t.rpos <- 0

let pop t =
  if t.len = 0 then invalid_arg "Frontier.pop: empty";
  if t.rpos >= Codec.length t.rd then advance_rd t;
  let v, rpos = Codec.varint_at_bytes (Codec.buffer t.rd) t.rpos in
  t.bytes <- t.bytes - (rpos - t.rpos);
  t.rpos <- rpos;
  t.len <- t.len - 1;
  v

let push2 t a b =
  push t a;
  push t b

let pop2 t =
  let a = pop t in
  let b = pop t in
  (a, b)

let clear t =
  Codec.reset t.rd;
  Codec.reset t.wr;
  t.rpos <- 0;
  t.len <- 0;
  t.bytes <- 0;
  while not (Queue.is_empty t.pending) do
    match Queue.pop t.pending with
    | Mem c ->
        t.pending_mem <- t.pending_mem - 1;
        free_chunk t c
    | Disk _ -> ()
  done;
  (* Spilled extents are dead once dequeued from [pending]; rewind so
     the file space is reused rather than grown without bound. *)
  t.spill_woff <- 0

let close t =
  clear t;
  match t.spill_fd with
  | None -> ()
  | Some fd ->
      t.spill_fd <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ())

let stats t =
  {
    peak_bytes = t.peak_bytes;
    peak_len = t.peak_len;
    peak_resident_bytes = t.peak_resident;
    spilled_bytes = t.spilled_bytes;
    spill_chunks = t.spill_chunks;
  }
