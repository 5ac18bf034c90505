(* The kernel's monotonic clock in nanoseconds, read by a [@@noalloc]
   C stub: a host clock step cannot move it. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let never () = false

let deadline = function
  | None -> never
  | Some seconds ->
      let d = now () +. seconds in
      fun () -> now () >= d
