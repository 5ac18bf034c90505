(* Enforcing performance gate.

   Compares two bench JSON artifacts (as written by
   [bench/main.exe --json], schema-checked through the shared report
   IR) benchmark by benchmark and prints the deltas, flagging rows
   whose time moved outside a tolerance band.

     dune exec bench/perf_gate.exe -- BASELINE.json LATEST.json... [--tolerance PCT]

   Several LATEST artifacts may be given (independent timing passes of
   the same suite); the gate scores each benchmark by its *minimum*
   across them.  Transient host load can only inflate a timing, never
   deflate it, so the fastest observed pass is the best estimator of
   the true cost — and a spike must hit every pass to produce a false
   failure.  `make perf-gate` runs three passes.

   Exit status is 1 when any baseline benchmark regressed beyond the
   tolerance or went missing from the latest run(s), 0 otherwise (and
   2 on unreadable/invalid artifacts).  Setting [STP_PERF_GATE=warn]
   in the environment restores the old report-only behaviour — same
   table, same verdicts, always exit 0 — as the escape hatch for
   loaded CI hosts where even min-of-N micro timings aren't
   trustworthy.

   The default tolerance is 50%: min-of-N timings on warm benchmarks
   are repeatable to well within that, so a 1.5x slowdown is a real
   regression and not quota-sized noise.  New benchmarks (in the
   latest run but not the baseline) never fail the gate; they are how
   the baseline grows. *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perf_gate: " ^ s); exit 2) fmt

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> s
  | exception Sys_error e -> fail "%s" e

(* Pull (benchmark → nanos, benchmark → minor words) out of a bench
   report artifact.  Older artifacts without the minor-words column
   still load — the column lookup is by header, not position. *)
let load path =
  let json =
    match Stdx.Json.parse (read_file path) with
    | Ok j -> j
    | Error e -> fail "%s: invalid JSON: %s" path e
  in
  let report =
    match Stdx.Report.of_json json with
    | Ok r -> r
    | Error e -> fail "%s: not a report artifact: %s" path e
  in
  let cell_float = function
    | Stdx.Report.Float { value; _ } -> value
    | Stdx.Report.Int i -> float_of_int i
    | _ -> nan
  in
  let nanos = Hashtbl.create 32 in
  let minor = Hashtbl.create 32 in
  let scan_table (t : Stdx.Report.table) =
    let col header =
      let rec idx i = function
        | [] -> None
        | (c : Stdx.Report.column) :: rest ->
            if String.equal c.header header then Some i else idx (i + 1) rest
      in
      idx 0 t.columns
    in
    match (col "benchmark", col "nanos_per_iter", col "minor_words_per_iter") with
    | Some name_i, Some ns_i, mw_i ->
        List.iter
          (function
            | Stdx.Report.Separator -> ()
            | Stdx.Report.Cells cells -> (
                match List.nth_opt cells name_i with
                | Some (Stdx.Report.String name) ->
                    Option.iter
                      (fun c -> Hashtbl.replace nanos name (cell_float c))
                      (List.nth_opt cells ns_i);
                    Option.iter
                      (fun i ->
                        Option.iter
                          (fun c -> Hashtbl.replace minor name (cell_float c))
                          (List.nth_opt cells i))
                      mw_i
                | Some _ | None -> ()))
          t.rows
    | _ -> ()
  in
  let rec scan_items items =
    List.iter
      (function
        | Stdx.Report.Table t -> scan_table t
        | Stdx.Report.Section { items; _ } -> scan_items items
        | Stdx.Report.Metrics _ | Stdx.Report.Text _ -> ())
      items
  in
  scan_items report.Stdx.Report.items;
  if Hashtbl.length nanos = 0 then fail "%s: no benchmark timing table found" path;
  (nanos, minor)

let () =
  let tolerance = ref 50.0 in
  let paths = ref [] in
  let rec parse = function
    | [] -> ()
    | "--tolerance" :: s :: rest -> (
        match float_of_string_opt s with
        | Some t when t > 0.0 ->
            tolerance := t;
            parse rest
        | Some _ | None -> fail "--tolerance needs a positive percentage")
    | "--tolerance" :: [] -> fail "--tolerance needs a PCT argument"
    | p :: rest ->
        paths := p :: !paths;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let baseline_path, latest_paths =
    match List.rev !paths with
    | b :: (_ :: _ as ls) -> (b, ls)
    | _ -> fail "usage: perf_gate BASELINE.json LATEST.json... [--tolerance PCT]"
  in
  let base_ns, base_mw = load baseline_path in
  (* Min-of-N across the latest passes: keep the fastest timing (and
     smallest allocation count) seen for each benchmark. *)
  let new_ns, new_mw =
    let min_merge into (tbl : (string, float) Hashtbl.t) =
      Hashtbl.iter
        (fun name v ->
          match Hashtbl.find_opt into name with
          | Some prev when Float.is_nan v || prev <= v -> ()
          | Some _ | None -> Hashtbl.replace into name v)
        tbl
    in
    let ns = Hashtbl.create 32 and mw = Hashtbl.create 32 in
    List.iter
      (fun path ->
        let pns, pmw = load path in
        min_merge ns pns;
        min_merge mw pmw)
      latest_paths;
    (ns, mw)
  in
  let latest_path =
    match latest_paths with [ l ] -> l | ls -> Printf.sprintf "min of %d passes" (List.length ls)
  in
  let names =
    Hashtbl.fold (fun k _ acc -> k :: acc) base_ns [] |> List.sort String.compare
  in
  let module R = Stdx.Report in
  let rows = ref [] in
  let add_row cells = rows := R.Cells (List.map R.str cells) :: !rows in
  let pretty ns =
    if Float.is_nan ns then "n/a"
    else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
    else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
    else Printf.sprintf "%.0f ns" ns
  in
  let delta older newer =
    if Float.is_nan older || Float.is_nan newer || older = 0.0 then None
    else Some (100.0 *. ((newer /. older) -. 1.0))
  in
  let pretty_delta = function
    | None -> "n/a"
    | Some d -> Printf.sprintf "%+.1f%%" d
  in
  let regressions = ref 0 and improvements = ref 0 and missing = ref 0 in
  List.iter
    (fun name ->
      let b = Hashtbl.find base_ns name in
      match Hashtbl.find_opt new_ns name with
      | None ->
          incr missing;
          add_row [ name; pretty b; "-"; "n/a"; "n/a"; "MISSING" ]
      | Some n ->
          let dt = delta b n in
          let dm =
            match (Hashtbl.find_opt base_mw name, Hashtbl.find_opt new_mw name) with
            | Some bm, Some nm -> delta bm nm
            | _ -> None
          in
          let verdict =
            match dt with
            | Some d when d > !tolerance ->
                incr regressions;
                "SLOWER"
            | Some d when d < -. !tolerance ->
                incr improvements;
                "faster"
            | Some _ -> "ok"
            | None -> "n/a"
          in
          add_row
            [ name; pretty b; pretty n; pretty_delta dt; pretty_delta dm; verdict ])
    names;
  Hashtbl.iter
    (fun name n ->
      if not (Hashtbl.mem base_ns name) then
        add_row [ name; "-"; pretty n; "n/a"; "n/a"; "new" ])
    new_ns;
  let table =
    {
      R.title =
        Printf.sprintf "perf gate: %s vs %s (tolerance %.0f%%)" baseline_path latest_path
          !tolerance;
      columns =
        [
          R.column "benchmark";
          R.column ~align:R.Right "baseline";
          R.column ~align:R.Right "latest";
          R.column ~align:R.Right "time";
          R.column ~align:R.Right "minor words";
          R.column "verdict";
        ];
      rows = List.rev !rows;
    }
  in
  print_string (R.table_to_text table);
  print_newline ();
  let warn_only =
    match Sys.getenv_opt "STP_PERF_GATE" with Some "warn" -> true | Some _ | None -> false
  in
  let failing = !regressions + !missing in
  Printf.printf "perf gate: %d regression(s) beyond %.0f%%, %d improvement(s), %d missing — %s\n"
    !regressions !tolerance !improvements !missing
    (if warn_only then "STP_PERF_GATE=warn, report only"
     else if failing > 0 then "FAIL"
     else "ok");
  if failing > 0 && not warn_only then exit 1
