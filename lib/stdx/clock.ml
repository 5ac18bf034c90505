let now = Unix.gettimeofday

let never () = false

let deadline = function
  | None -> never
  | Some seconds ->
      let d = now () +. seconds in
      fun () -> now () >= d
