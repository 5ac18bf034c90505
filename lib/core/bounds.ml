module Runner = Kernel.Runner
module Trace = Kernel.Trace

type measurement = {
  input : int list;
  learning_gaps : int option list;
  max_gap : int option;
  total_learning_time : int option;
}

let measure p ~xs ~strategy ~seeds ~max_steps ?(post_roll = 40) ?jobs () =
  (* Each (input, seed) run is an independent session — own rng,
     stateless strategy — so the simulation sweep is one batch mapped
     over domains; the universe build below stays sequential. *)
  let cells = List.concat_map (fun input -> List.map (fun seed -> (input, seed)) seeds) xs in
  let sessions =
    List.map
      (fun (input, seed) ->
        Kernel.Sched.session p ~input:(Array.of_list input) ~strategy
          ~rng:(Stdx.Rng.create seed) ~max_steps ~post_roll ())
      cells
  in
  let runs =
    List.map2
      (fun (input, _) (r : Runner.result) -> (input, r.Runner.trace))
      cells
      (Par.map ?jobs Kernel.Sched.run sessions)
  in
  let universe = Knowledge.Universe.of_traces (List.map snd runs) in
  List.mapi
    (fun run_idx (input, _) ->
      let times = Knowledge.Learn.learning_times universe ~run:run_idx in
      let gaps = Knowledge.Learn.gaps times in
      let finite = List.filter_map Fun.id gaps in
      let n = Array.length times in
      {
        input;
        learning_gaps = gaps;
        max_gap = (match finite with [] -> None | _ -> Some (List.fold_left max 0 finite));
        total_learning_time = (if n = 0 then Some 0 else times.(n - 1));
      })
    runs

let gap_by_length measurements =
  let by_len = Hashtbl.create 16 in
  List.iter
    (fun m ->
      match m.max_gap with
      | None -> ()
      | Some g ->
          let len = List.length m.input in
          let cur = Option.value ~default:[] (Hashtbl.find_opt by_len len) in
          Hashtbl.replace by_len len (float_of_int g :: cur))
    measurements;
  Hashtbl.fold
    (fun len gs acc ->
      match Stdx.Stats.summarize gs with Some s -> (len, s) :: acc | None -> acc)
    by_len []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let growth_slope points =
  match points with
  | [] | [ _ ] -> 0.0
  | _ ->
      let n = float_of_int (List.length points) in
      let sx = List.fold_left (fun acc (x, _) -> acc +. float_of_int x) 0.0 points in
      let sy = List.fold_left (fun acc (_, y) -> acc +. y) 0.0 points in
      let sxx = List.fold_left (fun acc (x, _) -> acc +. (float_of_int x ** 2.0)) 0.0 points in
      let sxy = List.fold_left (fun acc (x, y) -> acc +. (float_of_int x *. y)) 0.0 points in
      let denom = (n *. sxx) -. (sx *. sx) in
      if Float.abs denom < 1e-9 then 0.0 else ((n *. sxy) -. (sx *. sy)) /. denom

let to_report ~title measurements =
  let module R = Stdx.Report in
  let t =
    R.table ~title:"learning-gap summary by input length"
      [ ("|X|", R.Right); ("gap mean", R.Right); ("gap max", R.Right) ]
  in
  List.iter
    (fun (len, (s : Stdx.Stats.summary)) ->
      R.row t [ R.int len; R.float s.mean; R.float s.max ])
    (gap_by_length measurements);
  R.make ~id:"bounds" ~title [ R.finish t ]
