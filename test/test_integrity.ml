(* End-to-end integrity: checksums, media faults, scrub, quarantine.

   These tests drive the PR-5 integrity subsystem: per-artifact CRCs
   (log records, table runs, manifest floors), the seeded media-fault
   sweep, scrub repair/containment, quarantine semantics on the read
   path, read-cache invalidation, and crash-during-scrub recovery. *)

module C = Chameleondb
module Config = C.Config
module Store = C.Store
module Shard = C.Shard
module Manifest = C.Manifest
module Clock = Pmem_sim.Clock
module Device = Pmem_sim.Device
module Types = Kv_common.Types
module Vlog = Kv_common.Vlog
module LT = Kv_common.Linear_table
module SI = Kv_common.Store_intf

let dev () = Device.create Pmem_sim.Cost_model.optane

let key i = Workload.Keyspace.key_of_index i

let put db c k ~vlen = Store.write db c k (SI.Sized vlen)
let get db c k = (Store.read db c k).SI.loc

let small_cfg = { Config.default with Config.shards = 4; memtable_slots = 32 }

let mk ?(cfg = small_cfg) () = Store.create ~cfg ()

let load db clock n =
  for i = 0 to n - 1 do
    put db clock (key i) ~vlen:24
  done;
  Store.flush_all db clock;
  Store.wait_background db clock

(* ----------------------- checksum roundtrips ----------------------------- *)

let test_vlog_checksum_roundtrip () =
  let d = dev () in
  let t = Vlog.create d in
  let c = Clock.create () in
  let locs = List.init 20 (fun i -> Vlog.append t c (key i) ~vlen:24) in
  Vlog.flush t c;
  List.iter
    (fun l -> Alcotest.(check bool) "intact" true (Vlog.intact t c l))
    locs;
  let victim = List.nth locs 7 in
  Vlog.corrupt_entry t victim;
  Alcotest.(check bool) "bit rot detected" false (Vlog.intact t c victim);
  Alcotest.(check bool) "read refuses" true
    (Vlog.read t c victim = Error `Corrupt);
  (* neighbours unaffected *)
  Alcotest.(check bool) "neighbour intact" true
    (Vlog.intact t c (List.nth locs 8))

let test_vlog_poison_detected () =
  let d = dev () in
  let t = Vlog.create d in
  let c = Clock.create () in
  let locs = List.init 20 (fun i -> Vlog.append t c (key i) ~vlen:24) in
  Vlog.flush t c;
  let victim = List.nth locs 3 in
  let off, len = Vlog.entry_range t victim in
  Device.inject_poison d ~off ~len;
  Alcotest.(check bool) "poison detected" false (Vlog.intact t c victim);
  Alcotest.(check bool) "read refuses" true
    (Vlog.read t c victim = Error `Corrupt)

let test_table_checksum_roundtrip () =
  let d = dev () in
  let c = Clock.create () in
  let entries = List.init 50 (fun i -> (key i, i)) in
  let t = LT.build d c ~slots:128 entries in
  Alcotest.(check bool) "intact after build" true (LT.intact t c);
  let off, len = LT.media_range t in
  Device.flip_bit d ~off:(off + (len / 2)) ~bit:3;
  Alcotest.(check bool) "flip detected" false (LT.intact t c)

let test_manifest_checksum_roundtrip () =
  let db = mk () in
  let c = Clock.create () in
  load db c 200;
  Alcotest.(check bool) "floor intact" true
    (Manifest.floor_intact (Store.manifest db) ~shard:0);
  let off, len = Manifest.floor_range (Store.manifest db) ~shard:0 in
  Device.inject_poison (Store.device db) ~off ~len;
  Alcotest.(check bool) "floor poison detected" false
    (Manifest.floor_intact (Store.manifest db) ~shard:0)

(* ----------------------- seeded media-fault sweep ------------------------- *)

let test_media_sweep_chameleon () =
  let v =
    Fault.Media.run_store
      ~make:(fun () -> Store.store (mk ()))
      ~seeds:[ 1; 11 ] ~ops:1_500 ~universe:200 ~faults:8 ()
  in
  Alcotest.(check (list string)) "no violations" [] v.Fault.Media.m_violations;
  Alcotest.(check bool) "faults injected" true (v.Fault.Media.m_injected > 0)

let test_media_sweep_artifacts () =
  Alcotest.(check (list string)) "artifact legs clean" []
    (Fault.Media.run_chameleon_artifacts ~ops:2_000 ~universe:200 ())

(* ----------------------- scrub: repair and containment -------------------- *)

let test_scrub_repairs_table_then_reads_succeed () =
  let db = mk () in
  let c = Clock.create () in
  load db c 400;
  (* damage one persisted run *)
  let sh =
    match
      Array.find_map
        (fun sh ->
          match Shard.persistent_tables sh with [] -> None | _ -> Some sh)
        (Store.shards db)
    with
    | Some sh -> sh
    | None -> Alcotest.fail "no persisted tables after load"
  in
  let t = List.hd (Shard.persistent_tables sh) in
  let off, len = LT.media_range t in
  Device.inject_poison (Store.device db) ~off ~len:(min len 256);
  let r = Store.scrub db c ~budget_bytes:max_int in
  Alcotest.(check bool) "detected" true (r.SI.sr_detected >= 1);
  Alcotest.(check bool) "repaired" true (r.SI.sr_repaired >= 1);
  Alcotest.(check bool) "healthy after repair" true
    (Store.health db = SI.Healthy);
  (* every key still readable with its correct presence *)
  for i = 0 to 399 do
    let r = Store.read db c (key i) in
    Alcotest.(check bool) "read ok" true (r.SI.loc <> None);
    Alcotest.(check bool) "not corrupt" true (r.SI.stage <> SI.Corrupt)
  done;
  match Store.check_invariants db with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_quarantine_returns_corrupt_not_miss () =
  let db = mk () in
  let c = Clock.create () in
  load db c 100;
  let k = key 42 in
  (match get db c k with
  | Some loc -> Vlog.corrupt_entry (Store.vlog db) loc
  | None -> Alcotest.fail "victim not found");
  ignore (Store.scrub db c ~budget_bytes:max_int);
  let r = Store.read db c k in
  Alcotest.(check bool) "no loc served" true (r.SI.loc = None);
  Alcotest.(check bool) "explicit Corrupt, not a miss" true
    (r.SI.stage = SI.Corrupt);
  (* unaffected keys unchanged *)
  Alcotest.(check bool) "other key fine" true
    ((Store.read db c (key 7)).SI.loc <> None);
  (* a fresh write supersedes the quarantine *)
  put db c k ~vlen:24;
  let r = Store.read db c k in
  Alcotest.(check bool) "rewrite readable" true (r.SI.loc <> None);
  Alcotest.(check bool) "rewrite not corrupt" true (r.SI.stage <> SI.Corrupt)

let test_cache_invalidated_on_quarantine () =
  let cfg = { small_cfg with Config.cache_bytes = 64 * 1024 } in
  let db = mk ~cfg () in
  let c = Clock.create () in
  load db c 100;
  let k = key 13 in
  (* populate the read cache for the victim *)
  ignore (Store.read db c k);
  ignore (Store.read db c k);
  (match get db c k with
  | Some loc -> Vlog.corrupt_entry (Store.vlog db) loc
  | None -> Alcotest.fail "victim not found");
  Store.quarantine db c k;
  let r = Store.read db c k in
  Alcotest.(check bool) "cached loc not served" true (r.SI.loc = None);
  Alcotest.(check bool) "Corrupt after quarantine" true
    (r.SI.stage = SI.Corrupt)

let test_crash_during_scrub_recovers () =
  let db = mk () in
  let c = Clock.create () in
  load db c 300;
  let k = key 99 in
  (match get db c k with
  | Some loc -> Vlog.corrupt_entry (Store.vlog db) loc
  | None -> Alcotest.fail "victim not found");
  (* a partial pass, then power failure before the scrub completes *)
  ignore (Store.scrub db c ~budget_bytes:1024);
  Store.crash db;
  ignore (Store.recover db c);
  Store.wait_background db c;
  (* replay must not have resurrected the corrupt record as live data *)
  let r = Store.read db c k in
  Alcotest.(check bool) "no corrupt loc after recovery" true
    (r.SI.loc = None);
  (* finish scrubbing: the fault is detected and contained *)
  let detected = ref 0 in
  for _ = 1 to 64 do
    detected := !detected + (Store.scrub db c ~budget_bytes:max_int).SI.sr_detected
  done;
  Alcotest.(check bool) "fault detected post-recovery" true (!detected >= 1);
  let r = Store.read db c k in
  Alcotest.(check bool) "contained as Corrupt" true
    (r.SI.loc = None && r.SI.stage = SI.Corrupt);
  match Store.check_invariants db with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

(* ------------------------------- runner ----------------------------------- *)

(* ----------------------- scrub: budget deficit carry ---------------------- *)

let test_scrub_budget_deficit_carry () =
  (* The budget is a target, not a hard cap: a pass stops after the
     artifact that crosses it, so one pass can overshoot.  The overshoot
     must be carried: the next pass's target shrinks by the excess, so
     long-run scrub bandwidth converges to [budget] per pass instead of
     [budget + one artifact] per pass. *)
  let db = mk () in
  let c = Clock.create () in
  load db c 3_000;
  let budget = 48 * 1024 in
  let n = 12 in
  let per_pass = Array.make n 0 in
  for i = 0 to n - 1 do
    let r = Store.scrub db c ~budget_bytes:budget in
    per_pass.(i) <- r.SI.sr_scanned_bytes;
    Alcotest.(check bool)
      (Printf.sprintf "pass %d makes progress" i)
      true
      (r.SI.sr_scanned_bytes > 0);
    Alcotest.(check int)
      (Printf.sprintf "pass %d is clean" i)
      0 r.SI.sr_detected
  done;
  let total = Array.fold_left ( + ) 0 per_pass in
  let max_pass = Array.fold_left max 0 per_pass in
  (* the carry telescopes: n passes may exceed n*budget only by the last
     pass's (bounded, single-artifact) overshoot *)
  Alcotest.(check bool)
    (Printf.sprintf "long-run bandwidth converges (%d over %d passes <= %d)"
       total n ((n * budget) + max_pass))
    true
    (total <= (n * budget) + max_pass);
  (* the signature of the carry: some pass overshoots the nominal budget,
     and a later pass runs against a shrunken target to pay it back *)
  let overshot = Array.exists (fun s -> s > budget) per_pass in
  let compensated = Array.exists (fun s -> s < budget) per_pass in
  Alcotest.(check bool) "a pass overshot its budget" true overshot;
  Alcotest.(check bool) "a later pass paid the overshoot back" true
    compensated

let () =
  Alcotest.run "integrity"
    [ ( "checksums",
        [ Alcotest.test_case "vlog roundtrip" `Quick test_vlog_checksum_roundtrip;
          Alcotest.test_case "vlog poison" `Quick test_vlog_poison_detected;
          Alcotest.test_case "table roundtrip" `Quick
            test_table_checksum_roundtrip;
          Alcotest.test_case "manifest roundtrip" `Quick
            test_manifest_checksum_roundtrip ] );
      ( "media sweep",
        [ Alcotest.test_case "seeded sweep" `Quick test_media_sweep_chameleon;
          Alcotest.test_case "artifact legs" `Quick test_media_sweep_artifacts ]
      );
      ( "scrub",
        [ Alcotest.test_case "repairs then reads succeed" `Quick
            test_scrub_repairs_table_then_reads_succeed;
          Alcotest.test_case "quarantine is Corrupt not Miss" `Quick
            test_quarantine_returns_corrupt_not_miss;
          Alcotest.test_case "cache invalidated on quarantine" `Quick
            test_cache_invalidated_on_quarantine;
          Alcotest.test_case "crash during scrub" `Quick
            test_crash_during_scrub_recovers;
          Alcotest.test_case "budget deficit carries between passes" `Quick
            test_scrub_budget_deficit_carry ] ) ]
