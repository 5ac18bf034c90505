type config = {
  channel : Channel.Chan.kind;
  domain : int;
  max_len : int;
  header_space : int;
  drop_budget : int;
  window : int;
}

let default =
  {
    channel = Channel.Chan.Reorder_dup;
    domain = 2;
    max_len = 3;
    header_space = 2;
    drop_budget = 1;
    window = 2;
  }

type protocol_entry = {
  p_name : string;
  p_doc : string;
  p_build : config -> (Protocol.t, string) result;
}

(* Registration order is meaningful (it drives CLI listings), so keep
   a list rather than a hash table; both tables stay tiny. *)
let protocol_table : protocol_entry list ref = ref []

let register_protocol ~name ~doc build =
  if List.exists (fun e -> e.p_name = name) !protocol_table then
    invalid_arg (Printf.sprintf "Registry.register_protocol: duplicate %S" name);
  protocol_table := !protocol_table @ [ { p_name = name; p_doc = doc; p_build = build } ]

let protocol_names () = List.map (fun e -> e.p_name) !protocol_table

let find_protocol name = List.find_opt (fun e -> e.p_name = name) !protocol_table

(* The ranges every protocol may rely on, checked before any protocol
   is built: an out-of-range field is an error for every protocol, not
   an exception inside the one that divides by it. *)
let check_config c =
  match
    List.find_opt
      (fun (_, v, floor) -> v < floor)
      [ ("domain", c.domain, 1); ("max_len", c.max_len, 1); ("header_space", c.header_space, 1);
        ("drop_budget", c.drop_budget, 0); ("window", c.window, 1) ]
  with
  | Some (field, v, floor) -> Error (Printf.sprintf "%s must be at least %d (got %d)" field floor v)
  | None -> Ok ()

let build_protocol ~name config =
  match find_protocol name with
  | Some e -> Result.bind (check_config config) (fun () -> e.p_build config)
  | None -> Error (Printf.sprintf "unknown protocol %S" name)

let check_input c p input =
  match Array.find_opt (fun s -> s < 0 || s >= c.domain) input with
  | Some s -> Error (Printf.sprintf "input symbol %d is outside [0, %d)" s c.domain)
  | None -> (
      match p.Protocol.make_sender ~input with
      | _ -> Ok ()
      | exception Invalid_argument e -> Error e)

let channel_forms () = [ "perfect"; "fifo-lossy"; "dup"; "del"; "lag:K" ]

type experiment_entry = {
  e_id : string;
  e_doc : string;
  e_quick : unit -> Stdx.Report.t;
  e_full : unit -> Stdx.Report.t;
}

let experiment_table : experiment_entry list ref = ref []

let register_experiment ~id ~doc ~quick ~full =
  if List.exists (fun e -> e.e_id = id) !experiment_table then
    invalid_arg (Printf.sprintf "Registry.register_experiment: duplicate %S" id);
  experiment_table :=
    !experiment_table @ [ { e_id = id; e_doc = doc; e_quick = quick; e_full = full } ]

(* Registration order follows library link order (core's experiments
   initialise before the fault layer's), so the listing sorts E<n> ids
   numerically to keep the E1..En story in reading order regardless of
   which library contributed which entry. *)
let experiment_order e =
  if String.length e.e_id > 1 && e.e_id.[0] = 'E' then
    match int_of_string_opt (String.sub e.e_id 1 (String.length e.e_id - 1)) with
    | Some n -> (n, e.e_id)
    | None -> (max_int, e.e_id)
  else (max_int, e.e_id)

let experiments () =
  List.sort (fun a b -> compare (experiment_order a) (experiment_order b)) !experiment_table

let experiment_ids () = List.map (fun e -> e.e_id) (experiments ())

let find_experiment id =
  let id = String.lowercase_ascii id in
  List.find_opt (fun e -> String.lowercase_ascii e.e_id = id) !experiment_table
