let chart_window trace ~from ~upto =
  let buf = Buffer.create 1024 in
  let n = Trace.length trace in
  let from = max 0 from and upto = min n upto in
  Buffer.add_string buf
    (Printf.sprintf "%-4s %-18s %-12s %-18s %s\n" "t" "sender" "channel" "receiver" "output");
  let out_at t = Trace.output_at trace t in
  Array.iteri
    (fun t move ->
      if t >= from && t < upto then begin
        let wrote = Trace.output_length_at trace (t + 1) - Trace.output_length_at trace t in
        let lane_s, lane_mid, lane_r =
          match move with
          | Move.Wake_sender -> ("wake", "", "")
          | Move.Wake_receiver -> ("", "", "wake")
          | Move.Deliver_to_receiver m ->
              ("", Printf.sprintf "--[%d]-->" m, if wrote > 0 then "recv, write" else "recv")
          | Move.Deliver_to_sender m -> ("recv", Printf.sprintf "<--[%d]--" m, "")
          | Move.Drop_to_receiver m -> ("", Printf.sprintf "--[%d]--X" m, "")
          | Move.Drop_to_sender m -> ("", Printf.sprintf "X--[%d]--" m, "")
          | Move.Restart_sender -> ("CRASH/restart", "", "")
          | Move.Restart_receiver -> ("", "", "CRASH/restart")
          | Move.Corrupt_sender i -> (Printf.sprintf "CORRUPT #%d" i, "", "")
          | Move.Corrupt_receiver i -> ("", "", Printf.sprintf "CORRUPT #%d" i)
        in
        let output =
          if wrote > 0 then
            "Y = <" ^ String.concat " " (List.map string_of_int (out_at (t + 1))) ^ ">"
          else ""
        in
        Buffer.add_string buf
          (Printf.sprintf "%-4d %-18s %-12s %-18s %s\n" t lane_s lane_mid lane_r output)
      end)
    (Trace.moves trace);
  Buffer.contents buf

let chart trace = chart_window trace ~from:0 ~upto:(Trace.length trace)

let moves_of_witness_run (p : Protocol.t) ~input ~moves =
  let builder = Trace.start p ~input in
  let rec go = function
    | [] -> ()
    | move :: rest ->
        let g = Trace.current builder in
        if List.exists (Move.equal move) (Sim.enabled p g) then begin
          Trace.step builder move;
          go rest
        end
  in
  go moves;
  Trace.finish builder
