type agent = Sender | Receiver

type fact = Item_eq of int * int | Output_ge of int | Input_ge of int

type t = Fact of fact | Not of t | And of t * t | Or of t * t | Knows of agent * t

let knows_value agent ~i ~domain =
  let rec disjunction d =
    let k = Knows (agent, Fact (Item_eq (i, d))) in
    if d = domain - 1 then k else Or (k, disjunction (d + 1))
  in
  if domain <= 0 then invalid_arg "Formula.knows_value: empty domain" else disjunction 0

let chain agents phi = List.fold_right (fun a acc -> Knows (a, acc)) agents phi

let alternating ~depth ~first phi =
  let flip = function Sender -> Receiver | Receiver -> Sender in
  let rec agents a n = if n = 0 then [] else a :: agents (flip a) (n - 1) in
  chain (agents first depth) phi

let eval_fact u (p : Universe.point) = function
  | Item_eq (i, d) ->
      let input = Universe.input_of u p in
      i >= 1 && i <= Array.length input && input.(i - 1) = d
  | Output_ge n -> Universe.output_length_at u p >= n
  | Input_ge n -> Array.length (Universe.input_of u p) >= n

let rec eval u p = function
  | Fact f -> eval_fact u p f
  | Not phi -> not (eval u p phi)
  | And (a, b) -> eval u p a && eval u p b
  | Or (a, b) -> eval u p a || eval u p b
  | Knows (agent, phi) ->
      let cls = Universe.agent_class u (match agent with Sender -> `Sender | Receiver -> `Receiver) p in
      List.for_all (fun q -> eval u q phi) cls

let tabulate u phi =
  (* Bottom-up truth tables: one bool per point per subformula, so
     nested knowledge costs one class sweep per level instead of a
     class-size^depth blow-up. *)
  let traces = Universe.traces u in
  let table () =
    Array.map (fun t -> Array.make (Kernel.Trace.length t + 1) false) traces
  in
  let rec build phi =
    let tbl = table () in
    let fill f =
      Array.iteri
        (fun run row ->
          Array.iteri (fun time _ -> row.(time) <- f { Universe.run; time }) row)
        tbl
    in
    (match phi with
    | Fact fact -> fill (fun p -> eval_fact u p fact)
    | Not a ->
        let ta = build a in
        fill (fun p -> not ta.(p.Universe.run).(p.Universe.time))
    | And (a, b) ->
        let ta = build a and tb = build b in
        fill (fun p ->
            ta.(p.Universe.run).(p.Universe.time) && tb.(p.Universe.run).(p.Universe.time))
    | Or (a, b) ->
        let ta = build a and tb = build b in
        fill (fun p ->
            ta.(p.Universe.run).(p.Universe.time) || tb.(p.Universe.run).(p.Universe.time))
    | Knows (agent, a) ->
        let ta = build a in
        let side = match agent with Sender -> `Sender | Receiver -> `Receiver in
        fill (fun p ->
            List.for_all
              (fun q -> ta.(q.Universe.run).(q.Universe.time))
              (Universe.agent_class u side p)));
    tbl
  in
  let tbl = build phi in
  fun p -> tbl.(p.Universe.run).(p.Universe.time)

let common u phi =
  (* Greatest fixpoint of ψ ↦ φ ∧ K_S ψ ∧ K_R ψ over the finite point
     set: start from φ's truth table and strip points until stable. *)
  let base = tabulate u phi in
  let traces = Universe.traces u in
  let tbl = Array.map (fun t -> Array.make (Kernel.Trace.length t + 1) false) traces in
  Array.iteri
    (fun run row -> Array.iteri (fun time _ -> row.(time) <- base { Universe.run; time }) row)
    tbl;
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun run row ->
        Array.iteri
          (fun time holds ->
            if holds then begin
              let p = { Universe.run; time } in
              let ok_class side =
                List.for_all
                  (fun q -> tbl.(q.Universe.run).(q.Universe.time))
                  (Universe.agent_class u side p)
              in
              if not (ok_class `Sender && ok_class `Receiver) then begin
                row.(time) <- false;
                changed := true
              end
            end)
          row)
      tbl
  done;
  fun p -> tbl.(p.Universe.run).(p.Universe.time)

let first_time u ~run phi =
  let holds = tabulate u phi in
  let horizon = Kernel.Trace.length (Universe.traces u).(run) in
  let rec scan time =
    if time > horizon then None
    else if holds { Universe.run; time } then Some time
    else scan (time + 1)
  in
  scan 0

let rec pp ppf = function
  | Fact (Item_eq (i, d)) -> Format.fprintf ppf "x_%d=%d" i d
  | Fact (Output_ge n) -> Format.fprintf ppf "|Y|>=%d" n
  | Fact (Input_ge n) -> Format.fprintf ppf "|X|>=%d" n
  | Not phi -> Format.fprintf ppf "!(%a)" pp phi
  | And (a, b) -> Format.fprintf ppf "(%a & %a)" pp a pp b
  | Or (a, b) -> Format.fprintf ppf "(%a | %a)" pp a pp b
  | Knows (Sender, phi) -> Format.fprintf ppf "K_S %a" pp phi
  | Knows (Receiver, phi) -> Format.fprintf ppf "K_R %a" pp phi
