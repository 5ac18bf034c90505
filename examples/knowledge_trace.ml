(* Knowledge trace: watch the receiver learn.

   The paper's measuring device is epistemic: t_i is the first moment
   the receiver *knows* the value of the i-th data item — it has seen
   enough to rule out every allowable input that disagrees.  This
   example builds a point universe from many schedules of the Section 3
   protocol, then renders one run's knowledge frontier as a timeline,
   alongside what the receiver had actually written.

     dune exec examples/knowledge_trace.exe *)

let () =
  let m = 3 in
  let input = [ 1; 2; 0 ] in
  let protocol = Protocols.Norep.dup ~m in

  (* The universe must contain runs of *other* inputs too: knowledge is
     relative to what else the observed history could have meant. *)
  let u =
    Knowledge.Universe.sample protocol ~xs:(Seqspace.Norep.enumerate ~m)
      ~strategies:[ Kernel.Strategy.fair_random () ]
      ~seeds:8 ~max_steps:1_000 ~post_roll:20
  in
  let tarr = Knowledge.Universe.traces u in
  Format.printf "universe: %d runs, %d points, %d receiver-view classes@.@."
    (Array.length tarr) (Knowledge.Universe.n_points u) (Knowledge.Universe.n_classes u);

  (* Pick the first run of our chosen input and render its frontier. *)
  let run = List.hd (Knowledge.Universe.runs_of u input) in
  let trace = tarr.(run) in
  Format.printf "run %d, input %a: one row per step, K = items known, W = items written@.@."
    run Seqspace.Xset.pp_sequence input;
  let horizon = min (Kernel.Trace.length trace) 40 in
  for time = 0 to horizon do
    let known = Knowledge.Learn.known_prefix_length u { Knowledge.Universe.run; time } in
    let written = Kernel.Trace.output_length_at trace time in
    Format.printf "  t=%2d  K:%s%s  W:%s%s%s@." time (String.make known '#')
      (String.make (List.length input - known) '.')
      (String.make written '#')
      (String.make (List.length input - written) '.')
      (if time > 0 then
         Format.asprintf "   after %a" Kernel.Move.pp (Kernel.Trace.moves trace).(time - 1)
       else "")
  done;

  let lt = Knowledge.Learn.learning_times u ~run in
  let wt = Knowledge.Learn.write_times u ~run in
  Format.printf "@.learning times t_i: %s@."
    (String.concat ", "
       (Array.to_list (Array.map (function Some t -> string_of_int t | None -> "?") lt)));
  Format.printf "write times:        %s@."
    (String.concat ", "
       (Array.to_list (Array.map (function Some t -> string_of_int t | None -> "?") wt)));
  assert (Knowledge.Learn.stability_ok u ~run)

(* Finale: the mutual-knowledge ladder.  phi = "R has written the
   first item"; each wrapping K costs another acknowledgement hop. *)
let () =
  let m = 3 in
  let u =
    Knowledge.Universe.sample (Protocols.Norep.del ~m) ~xs:(Seqspace.Norep.enumerate ~m)
      ~strategies:[ Kernel.Strategy.fair_random () ]
      ~seeds:4 ~max_steps:1_000 ~post_roll:30
  in
  let run = List.hd (Knowledge.Universe.runs_of u [ 0; 1; 2 ]) in
  let module F = Knowledge.Formula in
  Format.printf "@.mutual-knowledge ladder on the same protocol family:@.";
  let rec ladder k phi =
    if k > 4 then ()
    else begin
      (match F.first_time u ~run phi with
      | Some t -> Format.printf "  %-34s first holds at t=%d@." (Format.asprintf "%a" F.pp phi) t
      | None -> Format.printf "  %-34s never within the sampled horizon@."
                  (Format.asprintf "%a" F.pp phi));
      let outer = if k mod 2 = 0 then F.Sender else F.Receiver in
      ladder (k + 1) (F.Knows (outer, phi))
    end
  in
  ladder 0 (F.Fact (F.Output_ge 1))
