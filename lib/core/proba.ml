module Runner = Kernel.Runner
module Trace = Kernel.Trace

type estimate = {
  trials : int;
  safety_failures : int;
  liveness_failures : int;
  p_fail : float;
  p_safety : float;
  wilson_upper : float;
}

let wilson_upper ~failures ~trials =
  if trials = 0 then 1.0
  else begin
    let z = 1.96 in
    let n = float_of_int trials in
    let p = float_of_int failures /. n in
    let z2 = z *. z in
    let denom = 1.0 +. (z2 /. n) in
    let centre = p +. (z2 /. (2.0 *. n)) in
    let margin = z *. sqrt ((p *. (1.0 -. p) /. n) +. (z2 /. (4.0 *. n *. n))) in
    Float.min 1.0 ((centre +. margin) /. denom)
  end

let of_counts ~trials ~safety_failures ~liveness_failures =
  let failures = safety_failures + liveness_failures in
  {
    trials;
    safety_failures;
    liveness_failures;
    p_fail = (if trials = 0 then 0.0 else float_of_int failures /. float_of_int trials);
    p_safety = (if trials = 0 then 0.0 else float_of_int safety_failures /. float_of_int trials);
    wilson_upper = wilson_upper ~failures ~trials;
  }

let estimate p ~input ~strategy ~trials ~max_steps ?(seed = 1) ?(post_roll = 25) ?jobs () =
  (* One session per trial.  The post-roll keeps each run
     alive past completion: stale deliveries that overshoot the output
     tape are failures too, and stopping at the first complete state
     would hide them.  Trials are seeded independently by index, so
     the batch maps over domains with bit-identical counts. *)
  let sessions =
    List.init trials (fun i ->
        Kernel.Sched.session p ~input:(Array.of_list input) ~strategy
          ~rng:(Stdx.Rng.create (seed + (i * 7919)))
          ~max_steps ~post_roll ())
  in
  let classify (r : Runner.result) =
    let trace = r.Runner.trace in
    if Trace.first_safety_violation trace <> None then `Safety
    else if Trace.completed_at trace = None then `Liveness
    else `Ok
  in
  let outcomes = List.map classify (Par.map ?jobs Kernel.Sched.run sessions) in
  let count k = List.length (List.filter (( = ) k) outcomes) in
  of_counts ~trials ~safety_failures:(count `Safety) ~liveness_failures:(count `Liveness)

let failure_by_length p ~inputs ~strategy ~trials ~max_steps ?(seed = 1) ?post_roll ?jobs () =
  let by_len = Hashtbl.create 8 in
  List.iter
    (fun input ->
      let e = estimate p ~input ~strategy ~trials ~max_steps ~seed ?post_roll ?jobs () in
      let len = List.length input in
      let acc =
        Option.value ~default:(0, 0, 0) (Hashtbl.find_opt by_len len)
      in
      let t, s, l = acc in
      Hashtbl.replace by_len len
        (t + e.trials, s + e.safety_failures, l + e.liveness_failures))
    inputs;
  Hashtbl.fold
    (fun len (t, s, l) acc ->
      (len, of_counts ~trials:t ~safety_failures:s ~liveness_failures:l) :: acc)
    by_len []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let to_report series =
  let module R = Stdx.Report in
  let t =
    R.table ~title:"Monte-Carlo failure estimates by input length"
      [
        ("|X|", R.Right);
        ("trials", R.Right);
        ("p_fail", R.Right);
        ("p_safety", R.Right);
        ("wilson 95% upper", R.Right);
      ]
  in
  List.iter
    (fun (len, e) ->
      R.row t
        [
          R.int len;
          R.int e.trials;
          R.float e.p_fail;
          R.float e.p_safety;
          R.float ~decimals:3 e.wilson_upper;
        ])
    series;
  R.make ~id:"proba" ~title:"probabilistic X-STP estimates" [ R.finish t ]
