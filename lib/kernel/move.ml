type t =
  | Wake_sender
  | Wake_receiver
  | Deliver_to_receiver of int
  | Deliver_to_sender of int
  | Drop_to_receiver of int
  | Drop_to_sender of int
  | Restart_sender
  | Restart_receiver
  | Corrupt_sender of int
  | Corrupt_receiver of int

let pp ppf = function
  | Wake_sender -> Format.pp_print_string ppf "wake S"
  | Wake_receiver -> Format.pp_print_string ppf "wake R"
  | Deliver_to_receiver m -> Format.fprintf ppf "deliver %d to R" m
  | Deliver_to_sender m -> Format.fprintf ppf "deliver %d to S" m
  | Drop_to_receiver m -> Format.fprintf ppf "drop %d (to R)" m
  | Drop_to_sender m -> Format.fprintf ppf "drop %d (to S)" m
  | Restart_sender -> Format.pp_print_string ppf "restart S"
  | Restart_receiver -> Format.pp_print_string ppf "restart R"
  | Corrupt_sender i -> Format.fprintf ppf "corrupt S #%d" i
  | Corrupt_receiver i -> Format.fprintf ppf "corrupt R #%d" i

let equal a b =
  match (a, b) with
  | Wake_sender, Wake_sender
  | Wake_receiver, Wake_receiver
  | Restart_sender, Restart_sender
  | Restart_receiver, Restart_receiver ->
      true
  | Deliver_to_receiver m, Deliver_to_receiver n
  | Deliver_to_sender m, Deliver_to_sender n
  | Drop_to_receiver m, Drop_to_receiver n
  | Drop_to_sender m, Drop_to_sender n
  | Corrupt_sender m, Corrupt_sender n
  | Corrupt_receiver m, Corrupt_receiver n ->
      m = n
  | ( ( Wake_sender | Wake_receiver | Deliver_to_receiver _ | Deliver_to_sender _
      | Drop_to_receiver _ | Drop_to_sender _ | Restart_sender | Restart_receiver
      | Corrupt_sender _ | Corrupt_receiver _ ),
      _ ) ->
      false

let to_string t = Format.asprintf "%a" pp t
