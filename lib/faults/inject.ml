module Move = Kernel.Move
module Strategy = Kernel.Strategy
module Global = Kernel.Global

(* A drop burst is live while its window is open AND it still has
   drops to land: the channel's cumulative drop counter, minus the
   budget of earlier bursts on the same side, tells a stateless
   strategy how many of THIS burst's drops already happened.  (The
   accounting assumes the base schedule itself never drops — true of
   every base the soak batteries use.) *)
let active plan ~time ~dropped =
  let rec go prior_r prior_s = function
    | [] -> None
    | e :: rest ->
        let first, last = Plan.window e in
        let in_window = first <= time && time <= last in
        let live =
          match e with
          | Plan.Drop_burst { target; count; _ } ->
              let prior =
                match target with Plan.To_receiver -> prior_r | Plan.To_sender -> prior_s
              in
              in_window && dropped target - prior < count
          | _ -> in_window
        in
        if live then Some e
        else
          let prior_r, prior_s =
            match e with
            | Plan.Drop_burst { target = Plan.To_receiver; count; _ } -> (prior_r + count, prior_s)
            | Plan.Drop_burst { target = Plan.To_sender; count; _ } -> (prior_r, prior_s + count)
            | _ -> (prior_r, prior_s)
          in
          go prior_r prior_s rest
  in
  go 0 0 plan.Plan.events

let verdict ~plan ~within result =
  let last_fault = Plan.last_fault_time plan in
  let v =
    Core.Verdict.of_result result |> Core.Verdict.assess_recovery ~last_fault ~within
  in
  (v, Core.Verdict.time_to_recover ~last_fault v)

let is_delivery target = function
  | Move.Deliver_to_receiver _ -> target = Plan.To_receiver
  | Move.Deliver_to_sender _ -> target = Plan.To_sender
  | _ -> false

let is_drop target = function
  | Move.Drop_to_receiver _ -> target = Plan.To_receiver
  | Move.Drop_to_sender _ -> target = Plan.To_sender
  | _ -> false

let delivery_symbol = function
  | Move.Deliver_to_receiver m | Move.Deliver_to_sender m -> m
  | _ -> -1

let strategy ~plan ~base =
  {
    Strategy.name = Printf.sprintf "%s+%s" base.Strategy.name plan.Plan.name;
    choose =
      (fun rng p (g : Global.t) enabled ->
        let dropped = function
          | Plan.To_receiver -> Channel.Chan.dropped_total g.Global.chan_sr
          | Plan.To_sender -> Channel.Chan.dropped_total g.Global.chan_rs
        in
        match active plan ~time:g.Global.time ~dropped with
        | None -> base.Strategy.choose rng p g enabled
        | Some (Plan.Crash_restart { who = Plan.Sender; _ }) -> Some Move.Restart_sender
        | Some (Plan.Crash_restart { who = Plan.Receiver; _ }) -> Some Move.Restart_receiver
        | Some (Plan.Corrupt_state { who = Plan.Sender; index; _ }) ->
            Some (Move.Corrupt_sender index)
        | Some (Plan.Corrupt_state { who = Plan.Receiver; index; _ }) ->
            Some (Move.Corrupt_receiver index)
        | Some (Plan.Drop_burst { target; _ }) -> (
            match List.filter (is_drop target) enabled with
            | m :: _ -> Some m
            | [] -> base.Strategy.choose rng p g enabled)
        | Some (Plan.Dup_burst { target; _ }) -> (
            (* On a duplicating channel a delivery leaves the copy
               deliverable, so forcing deliveries inside the window
               lands the same message repeatedly. *)
            match List.filter (is_delivery target) enabled with
            | m :: _ -> Some m
            | [] -> base.Strategy.choose rng p g enabled)
        | Some (Plan.Reorder_storm _) -> (
            (* Newest-first: delivering the largest symbols first
               forces the oldest in-flight copies to arrive last. *)
            match
              List.sort
                (fun a b -> Int.compare (delivery_symbol b) (delivery_symbol a))
                (List.filter (fun m -> delivery_symbol m >= 0) enabled)
            with
            | m :: _ -> Some m
            | [] -> base.Strategy.choose rng p g enabled)
        | Some (Plan.Blackout _) ->
            base.Strategy.choose rng p g
              (List.filter (fun m -> delivery_symbol m < 0) enabled));
  }
