(* Tests for the channel semantics of §2.2 / Property 1. *)

module Chan = Channel.Chan
module Multiset = Stdx.Multiset

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let deliver_exn t m =
  match Chan.deliver t m with Some t' -> t' | None -> Alcotest.failf "deliver %d failed" m

let drop_exn t m =
  match Chan.drop t m with Some t' -> t' | None -> Alcotest.failf "drop %d failed" m

(* ------------------------- kind predicates ------------------------- *)

let test_kind_predicates () =
  check Alcotest.bool "perfect no reorder" false (Chan.reorders Chan.Perfect);
  check Alcotest.bool "fifo no reorder" false (Chan.reorders Chan.Fifo_lossy);
  check Alcotest.bool "dup reorders" true (Chan.reorders Chan.Reorder_dup);
  check Alcotest.bool "del reorders" true (Chan.reorders Chan.Reorder_del);
  check Alcotest.bool "dup never deletes" false (Chan.deletes Chan.Reorder_dup);
  check Alcotest.bool "del deletes" true (Chan.deletes Chan.Reorder_del);
  check Alcotest.bool "fifo deletes" true (Chan.deletes Chan.Fifo_lossy);
  check Alcotest.bool "only dup duplicates" true
    (Chan.duplicates Chan.Reorder_dup
    && (not (Chan.duplicates Chan.Perfect))
    && (not (Chan.duplicates Chan.Fifo_lossy))
    && not (Chan.duplicates Chan.Reorder_del))

(* ------------------------- perfect / fifo ------------------------- *)

let test_perfect_fifo_order () =
  let t = Chan.send (Chan.send (Chan.create Chan.Perfect) 1) 2 in
  check (Alcotest.list Alcotest.int) "head only" [ 1 ] (Chan.deliverable t);
  let t = deliver_exn t 1 in
  check (Alcotest.list Alcotest.int) "then second" [ 2 ] (Chan.deliverable t);
  let t = deliver_exn t 2 in
  check (Alcotest.list Alcotest.int) "empty" [] (Chan.deliverable t)

let test_perfect_cannot_skip () =
  let t = Chan.send (Chan.send (Chan.create Chan.Perfect) 1) 2 in
  check Alcotest.bool "cannot deliver out of order" true (Chan.deliver t 2 = None)

let test_perfect_cannot_drop () =
  let t = Chan.send (Chan.create Chan.Perfect) 1 in
  check (Alcotest.list Alcotest.int) "no droppable" [] (Chan.droppable t);
  check Alcotest.bool "drop refused" true (Chan.drop t 1 = None)

let test_fifo_lossy_drop_head () =
  let t = Chan.send (Chan.send (Chan.create Chan.Fifo_lossy) 1) 2 in
  check (Alcotest.list Alcotest.int) "droppable = head" [ 1 ] (Chan.droppable t);
  let t = drop_exn t 1 in
  check (Alcotest.list Alcotest.int) "second surfaces" [ 2 ] (Chan.deliverable t);
  check Alcotest.int "dropped counter" 1 (Chan.dropped_total t)

(* ------------------------- reorder+dup ------------------------- *)

let test_dup_delivery_keeps_message () =
  let t = Chan.send (Chan.create Chan.Reorder_dup) 3 in
  let t = deliver_exn t 3 in
  check Alcotest.bool "still deliverable" true (Chan.can_deliver t 3);
  let t = deliver_exn t 3 in
  let t = deliver_exn t 3 in
  check Alcotest.int "delivered thrice" 3 (Chan.delivered_total t);
  check Alcotest.int "sent once" 1 (Chan.sent_total t)

let test_dup_set_semantics () =
  let t = Chan.send (Chan.send (Chan.create Chan.Reorder_dup) 5) 5 in
  check (Alcotest.list Alcotest.int) "set, not multiset" [ 5 ] (Chan.deliverable t);
  check Alcotest.int "dlvrble 0/1" 1 (Multiset.count (Chan.dlvrble t) 5)

let test_dup_any_order () =
  let t = Chan.send (Chan.send (Chan.create Chan.Reorder_dup) 1) 2 in
  (* Reordering: the later message can be delivered first. *)
  let t = deliver_exn t 2 in
  check Alcotest.bool "1 still there" true (Chan.can_deliver t 1)

let test_dup_never_drops () =
  let t = Chan.send (Chan.create Chan.Reorder_dup) 1 in
  check (Alcotest.list Alcotest.int) "no droppable" [] (Chan.droppable t)

let test_dup_debt () =
  let t = Chan.send (Chan.send (Chan.create Chan.Reorder_dup) 1) 1 in
  check Alcotest.int "owes two" 2 (Chan.debt t);
  let t = deliver_exn t 1 in
  check Alcotest.int "owes one" 1 (Chan.debt t);
  let t = deliver_exn t 1 in
  let t = deliver_exn t 1 in
  check Alcotest.int "overpaid is settled" 0 (Chan.debt t)

(* ------------------------- reorder+del ------------------------- *)

let test_del_delivery_consumes () =
  let t = Chan.send (Chan.create Chan.Reorder_del) 4 in
  let t = deliver_exn t 4 in
  check Alcotest.bool "gone" false (Chan.can_deliver t 4);
  check Alcotest.bool "second delivery refused" true (Chan.deliver t 4 = None)

let test_del_multiset_semantics () =
  let t = Chan.send (Chan.send (Chan.create Chan.Reorder_del) 4) 4 in
  check Alcotest.int "two copies" 2 (Multiset.count (Chan.dlvrble t) 4);
  let t = deliver_exn t 4 in
  check Alcotest.int "one copy left" 1 (Multiset.count (Chan.dlvrble t) 4)

let test_del_drop_any () =
  let t = Chan.send (Chan.send (Chan.create Chan.Reorder_del) 1) 2 in
  check (Alcotest.list Alcotest.int) "both droppable" [ 1; 2 ] (Chan.droppable t);
  let t = drop_exn t 2 in
  check Alcotest.bool "2 gone" false (Chan.can_deliver t 2);
  check Alcotest.bool "1 alive" true (Chan.can_deliver t 1)

let test_del_debt_is_in_flight () =
  let t = Chan.send (Chan.send (Chan.create Chan.Reorder_del) 1) 2 in
  check Alcotest.int "two in flight" 2 (Chan.debt t);
  let t = drop_exn t 1 in
  check Alcotest.int "drop clears debt too" 1 (Chan.debt t)

(* ------------------------- bounded reorder ------------------------- *)

let test_lag0_is_fifo () =
  let t = Chan.send (Chan.send (Chan.create (Chan.Bounded_reorder { lag = 0 })) 1) 2 in
  check (Alcotest.list Alcotest.int) "head only" [ 1 ] (Chan.deliverable t);
  check Alcotest.bool "cannot overtake" true (Chan.deliver t 2 = None)

let test_lag1_allows_one_overtake () =
  let t = Chan.send (Chan.send (Chan.create (Chan.Bounded_reorder { lag = 1 })) 1) 2 in
  check (Alcotest.list Alcotest.int) "both reachable" [ 1; 2 ] (Chan.deliverable t);
  let t = deliver_exn t 2 in
  (* 1 has now been overtaken once; a further newcomer cannot pass it. *)
  let t = Chan.send t 3 in
  check (Alcotest.list Alcotest.int) "blocker" [ 1 ] (Chan.deliverable t);
  let t = deliver_exn t 1 in
  check (Alcotest.list Alcotest.int) "unblocked" [ 3 ] (Chan.deliverable t)

let test_lag_charges_all_older () =
  (* Delivering the third copy overtakes both older ones at once. *)
  let t = Chan.create (Chan.Bounded_reorder { lag = 1 }) in
  let t = Chan.send (Chan.send (Chan.send t 1) 2) 3 in
  let t = deliver_exn t 3 in
  let t = Chan.send t 4 in
  (* 1 is at its overtake limit, so it blocks everything younger —
     including 2, whose own delivery would overtake 1 a second time. *)
  check (Alcotest.list Alcotest.int) "oldest blocks" [ 1 ] (Chan.deliverable t);
  let t = deliver_exn t 1 in
  check (Alcotest.list Alcotest.int) "2 next (4 still behind it)" [ 2 ] (Chan.deliverable t);
  let t = deliver_exn t 2 in
  check (Alcotest.list Alcotest.int) "then 4" [ 4 ] (Chan.deliverable t)

let test_lag_drop_any_no_charge () =
  let t = Chan.send (Chan.send (Chan.create (Chan.Bounded_reorder { lag = 0 })) 1) 2 in
  check (Alcotest.list Alcotest.int) "any droppable" [ 1; 2 ] (Chan.droppable t);
  let t = drop_exn t 1 in
  (* Dropping the head is not an overtake: 2 arrives fresh. *)
  check (Alcotest.list Alcotest.int) "head now 2" [ 2 ] (Chan.deliverable t);
  let t = deliver_exn t 2 in
  check Alcotest.int "conserved" 2
    (Chan.delivered_total t + Chan.dropped_total t)

let test_lag_kind_predicates () =
  check Alcotest.bool "lag 0 no reorder" false (Chan.reorders (Chan.Bounded_reorder { lag = 0 }));
  check Alcotest.bool "lag 2 reorders" true (Chan.reorders (Chan.Bounded_reorder { lag = 2 }));
  check Alcotest.bool "deletes" true (Chan.deletes (Chan.Bounded_reorder { lag = 2 }));
  check Alcotest.bool "no dup" false (Chan.duplicates (Chan.Bounded_reorder { lag = 2 }))

(* ------------------------- counters & encode ------------------------- *)

let test_counters () =
  let t = Chan.create Chan.Reorder_del in
  let t = Chan.send t 0 in
  let t = Chan.send t 0 in
  let t = Chan.send t 1 in
  let t = deliver_exn t 0 in
  let t = drop_exn t 1 in
  check Alcotest.int "sent 0" 2 (Chan.sent_count t 0);
  check Alcotest.int "sent 1" 1 (Chan.sent_count t 1);
  check Alcotest.int "delivered 0" 1 (Chan.delivered_count t 0);
  check Alcotest.int "dropped 1" 1 (Chan.dropped_count t 1);
  check Alcotest.int "sent total" 3 (Chan.sent_total t)

let test_encode_transition_relevant_only () =
  (* Same contents reached by different histories encode equally: the
     dup channel after send;deliver;send looks like send (the set is
     what matters), and counters are excluded. *)
  let a = deliver_exn (Chan.send (Chan.create Chan.Reorder_dup) 1) 1 in
  let b = Chan.send (Chan.create Chan.Reorder_dup) 1 in
  check Alcotest.string "dup encode ignores counters" (Chan.encode b) (Chan.encode a)

let test_encode_distinguishes_contents () =
  let a = Chan.send (Chan.create Chan.Reorder_del) 1 in
  let b = Chan.send (Chan.send (Chan.create Chan.Reorder_del) 1) 1 in
  check Alcotest.bool "del counts matter" true (Chan.encode a <> Chan.encode b);
  let c = Chan.send (Chan.send (Chan.create Chan.Perfect) 1) 2 in
  let d = Chan.send (Chan.send (Chan.create Chan.Perfect) 2) 1 in
  check Alcotest.bool "fifo order matters" true (Chan.encode c <> Chan.encode d)

let test_run_key_refines_encode () =
  (* send-then-drop returns a del channel to an empty body — the
     fingerprint coincides with a fresh channel's — but the cumulative
     counters differ, so the run key (the Runstate memo key) must
     distinguish them. *)
  let fresh = Chan.create Chan.Reorder_del in
  let spent = drop_exn (Chan.send fresh 1) 1 in
  let key emit c =
    let b = Stdx.Codec.create () in
    emit b c;
    Stdx.Codec.contents b
  in
  check Alcotest.string "fingerprints coincide" (Chan.encode fresh) (Chan.encode spent);
  check Alcotest.string "emit matches encode framing" (key Chan.emit fresh) (key Chan.emit spent);
  check Alcotest.string "emit writes the bare body" (Chan.encode spent) (key Chan.emit spent);
  check Alcotest.bool "run keys differ" true
    (key Chan.emit_run_key fresh <> key Chan.emit_run_key spent)

let prop_del_conservation =
  QCheck.Test.make ~name:"del channel: delivered+dropped+in-flight = sent"
    QCheck.(list (pair (int_range 0 3) bool))
    (fun script ->
      (* Interpret the script: send the symbol; on [true] try to
         deliver the oldest deliverable, on [false] try to drop. *)
      let t =
        List.fold_left
          (fun t (m, act) ->
            let t = Chan.send t m in
            if act then
              match Chan.deliverable t with [] -> t | x :: _ -> deliver_exn t x
            else match Chan.droppable t with [] -> t | x :: _ -> drop_exn t x)
          (Chan.create Chan.Reorder_del) script
      in
      Chan.sent_total t = Chan.delivered_total t + Chan.dropped_total t + Chan.debt t)

let prop_lag_conservation =
  QCheck.Test.make ~name:"lag channel: delivered+dropped+in-flight = sent"
    QCheck.(triple (int_range 0 3) (list (pair (int_range 0 3) bool)) bool)
    (fun (lag, script, drop_mode) ->
      let t =
        List.fold_left
          (fun t (m, act) ->
            let t = Chan.send t m in
            if act then
              match Chan.deliverable t with [] -> t | x :: _ -> deliver_exn t x
            else if drop_mode then
              match Chan.droppable t with [] -> t | x :: _ -> drop_exn t x
            else t)
          (Chan.create (Chan.Bounded_reorder { lag }))
          script
      in
      Chan.sent_total t = Chan.delivered_total t + Chan.dropped_total t + Chan.debt t)

let prop_lag_zero_delivers_in_order =
  QCheck.Test.make ~name:"lag 0: deliveries come out in send order"
    QCheck.(list (int_range 0 5))
    (fun sends ->
      let t = List.fold_left Chan.send (Chan.create (Chan.Bounded_reorder { lag = 0 })) sends in
      let rec drain t acc =
        match Chan.deliverable t with
        | [] -> List.rev acc
        | m :: _ -> drain (deliver_exn t m) (m :: acc)
      in
      drain t [] = sends)

let prop_dup_deliverable_monotone =
  QCheck.Test.make ~name:"dup channel: deliverable set only grows"
    QCheck.(list (int_range 0 4))
    (fun sends ->
      let _, ok =
        List.fold_left
          (fun (t, ok) m ->
            let t' = Chan.send t m in
            let old_set = Chan.deliverable t in
            (t', ok && List.for_all (fun x -> Chan.can_deliver t' x) old_set))
          (Chan.create Chan.Reorder_dup, true)
          sends
      in
      ok)

(* [deliver] and [drop] decide legality from the body operation, while
   [deliverable] and [droppable] (which [Sim.enabled] lists moves from)
   enumerate it; the two must agree on every channel kind at every
   reachable body.  Each step sends, delivers or drops a random symbol,
   checking both predicates for every symbol first. *)
let prop_legality_matches_enumeration =
  let kinds =
    Chan.
      [
        Perfect;
        Fifo_lossy;
        Reorder_dup;
        Reorder_del;
        Bounded_reorder { lag = 0 };
        Bounded_reorder { lag = 1 };
        Bounded_reorder { lag = 2 };
      ]
  in
  QCheck.Test.make ~name:"deliver/drop succeed exactly on deliverable/droppable" ~count:300
    QCheck.(pair (int_bound (List.length kinds - 1)) (list (pair (int_range 0 2) (int_range 0 3))))
    (fun (k, script) ->
      let legal t =
        List.for_all
          (fun m ->
            Option.is_some (Chan.deliver t m) = List.mem m (Chan.deliverable t)
            && Chan.can_deliver t m = List.mem m (Chan.deliverable t)
            && Option.is_some (Chan.drop t m) = List.mem m (Chan.droppable t))
          [ 0; 1; 2; 3 ]
      in
      let step (t, ok) (op, m) =
        let t =
          match op with
          | 0 -> Chan.send t m
          | 1 -> Option.value (Chan.deliver t m) ~default:t
          | _ -> Option.value (Chan.drop t m) ~default:t
        in
        (t, ok && legal t)
      in
      let t0 = Chan.create (List.nth kinds k) in
      snd (List.fold_left step (t0, legal t0) script))

(* ------------------------- kind names ------------------------- *)

(* [of_string] is the single channel-kind parser (CLI, bench,
   examples); it must invert [to_string] on every kind. *)
let kind_gen =
  QCheck.Gen.(
    oneof
      [
        oneofl [ Chan.Perfect; Chan.Fifo_lossy; Chan.Reorder_dup; Chan.Reorder_del ];
        map (fun lag -> Chan.Bounded_reorder { lag }) (int_bound 50);
      ])

let kind_arbitrary = QCheck.make ~print:Chan.kind_name kind_gen

let prop_kind_string_round_trip =
  QCheck.Test.make ~name:"of_string (to_string k) = Some k" ~count:200 kind_arbitrary (fun k ->
      Chan.of_string (Chan.to_string k) = Some k)

let test_kind_string_aliases () =
  let parses s k = check Alcotest.bool s true (Chan.of_string s = Some k) in
  parses "fifo" Chan.Fifo_lossy;
  parses "lossy" Chan.Fifo_lossy;
  parses "reorder+dup" Chan.Reorder_dup;
  parses "reorder-dup" Chan.Reorder_dup;
  parses "reorder+del" Chan.Reorder_del;
  parses "reorder-del" Chan.Reorder_del;
  parses "lag=3" (Chan.Bounded_reorder { lag = 3 });
  parses "lag:0" (Chan.Bounded_reorder { lag = 0 });
  check Alcotest.bool "negative lag rejected" true (Chan.of_string "lag:-1" = None);
  check Alcotest.bool "junk rejected" true (Chan.of_string "carrier-pigeon" = None);
  check Alcotest.bool "empty rejected" true (Chan.of_string "" = None)

let () =
  Alcotest.run "channel"
    [
      ( "kinds",
        [
          Alcotest.test_case "predicates" `Quick test_kind_predicates;
          Alcotest.test_case "name aliases" `Quick test_kind_string_aliases;
          qtest prop_kind_string_round_trip;
        ] );
      ( "perfect/fifo",
        [
          Alcotest.test_case "fifo order" `Quick test_perfect_fifo_order;
          Alcotest.test_case "cannot skip" `Quick test_perfect_cannot_skip;
          Alcotest.test_case "cannot drop" `Quick test_perfect_cannot_drop;
          Alcotest.test_case "lossy drops head" `Quick test_fifo_lossy_drop_head;
        ] );
      ( "reorder+dup",
        [
          Alcotest.test_case "delivery keeps message" `Quick test_dup_delivery_keeps_message;
          Alcotest.test_case "set semantics" `Quick test_dup_set_semantics;
          Alcotest.test_case "any order" `Quick test_dup_any_order;
          Alcotest.test_case "never drops" `Quick test_dup_never_drops;
          Alcotest.test_case "debt (Property 1c)" `Quick test_dup_debt;
          qtest prop_dup_deliverable_monotone;
        ] );
      ( "reorder+del",
        [
          Alcotest.test_case "delivery consumes" `Quick test_del_delivery_consumes;
          Alcotest.test_case "multiset semantics" `Quick test_del_multiset_semantics;
          Alcotest.test_case "drop any copy" `Quick test_del_drop_any;
          Alcotest.test_case "debt = in flight" `Quick test_del_debt_is_in_flight;
          qtest prop_del_conservation;
        ] );
      ( "bounded-reorder-props",
        [ qtest prop_lag_conservation; qtest prop_lag_zero_delivers_in_order ] );
      ( "bounded-reorder",
        [
          Alcotest.test_case "lag 0 = fifo" `Quick test_lag0_is_fifo;
          Alcotest.test_case "lag 1 one overtake" `Quick test_lag1_allows_one_overtake;
          Alcotest.test_case "charges all older" `Quick test_lag_charges_all_older;
          Alcotest.test_case "drop charges nothing" `Quick test_lag_drop_any_no_charge;
          Alcotest.test_case "kind predicates" `Quick test_lag_kind_predicates;
        ] );
      ( "bookkeeping",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "encode ignores counters" `Quick test_encode_transition_relevant_only;
          Alcotest.test_case "encode sees contents" `Quick test_encode_distinguishes_contents;
          Alcotest.test_case "run key refines encode" `Quick test_run_key_refines_encode;
        ] );
      ("legality", [ qtest prop_legality_matches_enumeration ]);
    ]
