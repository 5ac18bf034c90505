module Explore = Kernel.Explore

let universe p ~inputs ~depth ?max_runs_per_input () =
  let traces = ref [] in
  let complete = ref true in
  List.iter
    (fun input ->
      let count = ref 0 in
      Explore.iter_runs p ~input:(Array.of_list input) ~depth ?max_runs:max_runs_per_input
        (fun trace ->
          incr count;
          traces := trace :: !traces);
      match max_runs_per_input with
      | Some cap when !count >= cap -> complete := false
      | Some _ | None -> ())
    inputs;
  (Universe.of_traces (List.rev !traces), !complete)

let compare_with_sampled exact sampled ~run_exact ~run_sampled =
  let lt_exact = Learn.learning_times exact ~run:run_exact in
  let lt_sampled = Learn.learning_times sampled ~run:run_sampled in
  let n = min (Array.length lt_exact) (Array.length lt_sampled) in
  List.init n (fun i -> (lt_exact.(i), lt_sampled.(i)))
