(* The report IR: golden schema pins, renderer parity, round-trip
   fixpoints, and the registry cross-checks.

   The JSON golden below is the schema contract for --json artifacts:
   if it moves, downstream tooling breaks, so any intentional change
   must bump [Report.schema_version] and update the golden here. *)

module R = Stdx.Report
module Json = Stdx.Json

let check = Alcotest.check

(* ------------------------- synthetic sample ------------------------- *)

(* One report exercising every cell type, both alignments, units,
   separators, metrics, free text, and a nested section. *)
let sample () =
  let t =
    R.table_cols ~title:"cells"
      [ R.column ~align:R.Right "n"; R.column ~unit_:"ms" ~align:R.Right "t"; R.column "name" ]
  in
  R.row t [ R.int 1; R.float 0.5; R.str "a" ];
  R.sep t;
  R.row t [ R.int 22; R.float ~decimals:3 1.25; R.str "b" ];
  R.make ~id:"sample" ~title:"synthetic sample" ~ok:true ~notes:[ "pinned" ]
    [
      R.finish t;
      R.Metrics
        {
          title = Some "m";
          pairs = [ ("big", R.bignat (Stdx.Bignat.of_int 7)); ("flag", R.bool false) ];
        };
      R.Text "free text";
      R.Section { heading = "sec"; items = [ R.Text "inner" ] };
    ]

let golden_json = {golden|{
  "schema_version": 1,
  "id": "sample",
  "title": "synthetic sample",
  "ok": true,
  "notes": ["pinned"],
  "items": [
    {
      "kind": "table",
      "title": "cells",
      "columns": [
        {"header": "n", "align": "right", "unit": null},
        {"header": "t", "align": "right", "unit": "ms"},
        {"header": "name", "align": "left", "unit": null}
      ],
      "rows": [
        {"kind": "cells", "cells": [{"type": "int", "value": 1}, {"type": "float", "value": 0.5, "decimals": 2}, {"type": "string", "value": "a"}]},
        {"kind": "separator"},
        {"kind": "cells", "cells": [{"type": "int", "value": 22}, {"type": "float", "value": 1.25, "decimals": 3}, {"type": "string", "value": "b"}]}
      ]
    },
    {
      "kind": "metrics",
      "title": "m",
      "pairs": [
        {"key": "big", "value": {"type": "bignat", "value": "7"}},
        {"key": "flag", "value": {"type": "bool", "value": false}}
      ]
    },
    {"kind": "text", "text": "free text"},
    {
      "kind": "section",
      "heading": "sec",
      "items": [{"kind": "text", "text": "inner"}]
    }
  ]
}|golden}

let test_golden_json () =
  (* Compare as parsed values so the pin is about structure, then as
     strings so the printer itself cannot drift either. *)
  let actual = R.to_json (sample ()) in
  let expected =
    match Json.parse golden_json with
    | Ok j -> j
    | Error e -> Alcotest.failf "golden does not parse: %s" e
  in
  if not (Json.equal actual expected) then
    Alcotest.failf "golden JSON drifted; actual:@.%s" (Json.to_string actual)

let test_text_matches_tabular () =
  (* The text renderer's box layout, pinned byte for byte: the expected
     text is what the original Tabular renderer printed for this table,
     and the E1-E17 text output and EXPERIMENTS.md rely on it. *)
  let ir_table =
    match (sample ()).R.items with
    | R.Table tbl :: _ -> tbl
    | _ -> Alcotest.fail "sample lost its table"
  in
  check Alcotest.string "golden table text"
    "cells\n\
     +----+-------+------+\n\
     |  n |     t | name |\n\
     +----+-------+------+\n\
     |  1 |  0.50 | a    |\n\
     +----+-------+------+\n\
     | 22 | 1.250 | b    |\n\
     +----+-------+------+\n"
    (R.table_to_text ir_table)

let contains ~needle hay =
  let n = String.length needle in
  let rec scan i = i + n <= String.length hay && (String.sub hay i n = needle || scan (i + 1)) in
  scan 0

let test_csv () =
  let csv = R.to_csv (sample ()) in
  check Alcotest.bool "has unit suffix header" true (contains ~needle:"t (ms)" csv);
  check Alcotest.bool "quotes nothing needlessly" true (contains ~needle:"free text" csv)

(* ------------------------- round-trip fixpoint ------------------------- *)

let round_trips name r =
  let j = R.to_json r in
  match R.of_json j with
  | Error e -> Alcotest.failf "%s: of_json failed: %s" name e
  | Ok r' ->
      if not (Json.equal j (R.to_json r')) then
        Alcotest.failf "%s: to_json . of_json is not a fixpoint" name

let test_round_trip_sample () = round_trips "sample" (sample ())

let test_validate_artifact () =
  let artifact = Json.to_string (R.set_to_json [ sample (); sample () ]) in
  (match R.validate_artifact artifact with
  | Ok 2 -> ()
  | Ok n -> Alcotest.failf "expected 2 reports, got %d" n
  | Error e -> Alcotest.failf "valid artifact rejected: %s" e);
  (match R.validate_artifact "{\"schema_version\": 99}" with
  | Ok _ -> Alcotest.fail "wrong schema version accepted"
  | Error _ -> ());
  match R.validate_artifact "not json" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ()

(* ------------------------- producer schemas ------------------------- *)

(* One report per producer: pin the stable id, the item shapes, and
   the round-trip — the parts downstream tooling keys on — without
   pinning computed numbers. *)

let item_kind = function
  | R.Table _ -> "table"
  | R.Metrics _ -> "metrics"
  | R.Text _ -> "text"
  | R.Section _ -> "section"

let assert_shape name r ~id ~kinds =
  check Alcotest.string (name ^ " id") id r.R.id;
  check (Alcotest.list Alcotest.string) (name ^ " item kinds") kinds
    (List.map item_kind r.R.items);
  round_trips name r

let test_e1_schema () =
  let r = Core.Experiments.e1_alpha_tightness ~m_max:4 ~m_verify:2 ~seeds:1 () in
  assert_shape "E1" r ~id:"E1" ~kinds:[ "table" ];
  check Alcotest.bool "E1 ok" true (Core.Experiments.ok r)

let test_attack_schema () =
  let p = Protocols.Norep.dup ~m:2 in
  match Core.Attack.search_pair p ~x1:[ 0; 1 ] ~x2:[ 0; 0 ] () with
  | Core.Attack.No_violation _ -> Alcotest.fail "expected a witness past the bound"
  | outcome ->
      let r = Core.Attack.outcome_report ~x1:[ 0; 1 ] ~x2:[ 0; 0 ] outcome in
      assert_shape "attack" r ~id:"attack" ~kinds:[ "metrics"; "metrics" ];
      check Alcotest.bool "attack ok is None" true (r.R.ok = None)

let test_verify_schema () =
  let p = Protocols.Norep.dup ~m:2 in
  let spec = Core.Harness.default_spec ~max_steps:2_000 ~n_seeds:1 () in
  let report = Core.Harness.verify p ~xs:(Seqspace.Norep.enumerate ~m:2) spec in
  let r = Core.Harness.to_report report in
  assert_shape "verify" r ~id:"verify" ~kinds:[ "metrics" ];
  check Alcotest.bool "verify ok" true (r.R.ok = Some true)

let test_census_schema () =
  let control = Core.Census.control_is_clean () in
  let report = Core.Census.run ~samples:5 ~states:3 ~jobs:1 () in
  let r = Core.Census.to_report ~control report in
  assert_shape "census" r ~id:"census" ~kinds:[ "metrics" ]

let test_bounds_schema () =
  let p = Protocols.Norep.dup ~m:2 in
  let ms =
    Core.Bounds.measure p
      ~xs:[ [ 0 ]; [ 0; 1 ] ]
      ~strategy:(Kernel.Strategy.fair_random ()) ~seeds:[ 1 ] ~max_steps:2_000 ()
  in
  let r = Core.Bounds.to_report ~title:"gap profile" ms in
  assert_shape "bounds" r ~id:"bounds" ~kinds:[ "table" ]

let test_proba_schema () =
  let p = Protocols.Norep.dup ~m:2 in
  let e =
    Core.Proba.estimate p ~input:[ 0; 1 ] ~strategy:(Kernel.Strategy.fair_random ()) ~trials:5
      ~max_steps:2_000 ()
  in
  let r = Core.Proba.to_report [ (2, e) ] in
  assert_shape "proba" r ~id:"proba" ~kinds:[ "table" ]

(* ------------------------- harness truncation ------------------------- *)

let test_harness_truncation () =
  (* Counting over a reordering channel is the canonical broken
     protocol (E2): plenty of failing runs to truncate. *)
  let p = Protocols.Counting.protocol_on Channel.Chan.Reorder_dup ~domain:2 in
  let xs = [ [ 0; 1 ]; [ 1; 0 ] ] in
  let spec = Core.Harness.default_spec ~max_steps:2_000 ~n_seeds:3 () in
  let full = Core.Harness.verify p ~xs spec in
  let capped = Core.Harness.verify p ~xs ~max_failures:1 spec in
  check Alcotest.int "total failures unaffected by the cap" full.Core.Harness.failures_total
    capped.Core.Harness.failures_total;
  check Alcotest.bool "cap respected" true (List.length capped.Core.Harness.failures <= 1);
  check Alcotest.bool "clean ignores the cap" (Core.Harness.clean full)
    (Core.Harness.clean capped);
  check Alcotest.bool "chronological prefix" true
    (match (full.Core.Harness.failures, capped.Core.Harness.failures) with
    | f :: _, [ c ] -> f = c
    | _ :: _, [] -> false
    | [], [] -> true
    | _ -> false);
  if capped.Core.Harness.failures_total > List.length capped.Core.Harness.failures then
    check Alcotest.bool "truncation noted in IR" true
      ((Core.Harness.to_report capped).R.notes <> [])

(* ------------------------- registry cross-checks ------------------------- *)

let sorted = List.sort String.compare

let test_registry_protocols () =
  (* Set equality, not order: registration order is link order. *)
  check (Alcotest.list Alcotest.string) "protocol names"
    (sorted
       [
         "norep"; "coded"; "abp"; "abp-stab"; "stenning"; "stenning-mod"; "stenning-stab";
         "counting"; "counting-resend"; "trivial"; "ladder"; "hybrid"; "go-back-n";
         "gbn-stab"; "selective-repeat";
       ])
    (sorted (Kernel.Registry.protocol_names ()));
  (* Every registered builder produces a protocol under the default
     config (or a clean error, never an exception). *)
  List.iter
    (fun name ->
      match Kernel.Registry.build_protocol ~name Kernel.Registry.default with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s failed to build under defaults: %s" name e)
    (Kernel.Registry.protocol_names ())

let test_registry_experiments () =
  check (Alcotest.list Alcotest.string) "experiment ids"
    [ "E1"; "E2"; "E3"; "E4"; "E5"; "E6"; "E7"; "E8"; "E9"; "E10"; "E11"; "E12"; "E13";
      "E14"; "E15"; "E16"; "E17" ]
    (Kernel.Registry.experiment_ids ());
  check Alcotest.bool "case-insensitive lookup" true
    (match Kernel.Registry.find_experiment "e3" with
    | Some e -> e.Kernel.Registry.e_id = "E3"
    | None -> false)

let test_registry_channels () =
  List.iter
    (fun form ->
      let form = if form = "lag:K" then "lag:2" else form in
      match Channel.Chan.of_string form with
      | Some k ->
          check Alcotest.string ("round-trip " ^ form) form (Channel.Chan.to_string k)
      | None -> Alcotest.failf "documented channel form %S does not parse" form)
    (Kernel.Registry.channel_forms ())

let () =
  Alcotest.run "report"
    [
      ( "golden",
        [
          Alcotest.test_case "json schema" `Quick test_golden_json;
          Alcotest.test_case "text = tabular" `Quick test_text_matches_tabular;
          Alcotest.test_case "csv units" `Quick test_csv;
          Alcotest.test_case "round trip" `Quick test_round_trip_sample;
          Alcotest.test_case "validate artifact" `Quick test_validate_artifact;
        ] );
      ( "producers",
        [
          Alcotest.test_case "E1" `Quick test_e1_schema;
          Alcotest.test_case "attack" `Quick test_attack_schema;
          Alcotest.test_case "verify" `Quick test_verify_schema;
          Alcotest.test_case "census" `Quick test_census_schema;
          Alcotest.test_case "bounds" `Quick test_bounds_schema;
          Alcotest.test_case "proba" `Quick test_proba_schema;
        ] );
      ( "harness",
        [ Alcotest.test_case "max_failures truncation" `Quick test_harness_truncation ] );
      ( "registry",
        [
          Alcotest.test_case "protocols" `Quick test_registry_protocols;
          Alcotest.test_case "experiments" `Quick test_registry_experiments;
          Alcotest.test_case "channel forms" `Quick test_registry_channels;
        ] );
    ]
