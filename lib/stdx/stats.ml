type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: empty"
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if n = 1 then sorted.(0)
  else begin
    let rank = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let summarize xs =
  match xs with
  | [] -> None
  | _ ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      let m = mean xs in
      let var =
        if n < 2 then 0.0
        else
          List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs
          /. float_of_int (n - 1)
      in
      Some
        {
          n;
          mean = m;
          stddev = sqrt var;
          min = a.(0);
          max = a.(n - 1);
          p50 = percentile a 0.5;
          p90 = percentile a 0.9;
          p99 = percentile a 0.99;
        }

let histogram ~buckets xs =
  match (xs, buckets) with
  | [], _ | _, 0 -> []
  | _ ->
      let lo = List.fold_left Float.min infinity xs in
      let hi = List.fold_left Float.max neg_infinity xs in
      let width = if hi > lo then (hi -. lo) /. float_of_int buckets else 1.0 in
      let counts = Array.make buckets 0 in
      let bucket_of x =
        let b = int_of_float ((x -. lo) /. width) in
        if b >= buckets then buckets - 1 else if b < 0 then 0 else b
      in
      List.iter (fun x -> counts.(bucket_of x) <- counts.(bucket_of x) + 1) xs;
      List.init buckets (fun i ->
          let blo = lo +. (float_of_int i *. width) in
          (blo, blo +. width, counts.(i)))
