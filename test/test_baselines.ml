module Clock = Pmem_sim.Clock
module Device = Pmem_sim.Device
module Stats = Pmem_sim.Stats
module Types = Kv_common.Types
module Vlog = Kv_common.Vlog
module Store_intf = Kv_common.Store_intf
module Config = Chameleondb.Config

let key i = Workload.Keyspace.key_of_index i

let put h c k ~vlen = Store_intf.write h c k (Store_intf.Sized vlen)
let get h c k = (Store_intf.read h c k).Store_intf.loc

let small_cfg = { Config.default with Config.shards = 4; memtable_slots = 32 }

let lsm variant () =
  Baselines.Pmem_lsm.store (Baselines.Pmem_lsm.create ~cfg:small_cfg variant)

let all_stores () =
  [ lsm Baselines.Pmem_lsm.Nf ();
    lsm Baselines.Pmem_lsm.F ();
    lsm Baselines.Pmem_lsm.Pink ();
    Baselines.Pmem_hash.store (Baselines.Pmem_hash.create ());
    Baselines.Dram_hash.store (Baselines.Dram_hash.create ());
    Baselines.Hybrid_viper.store (Baselines.Hybrid_viper.create ());
    Baselines.Novelsm.store
      (Baselines.Novelsm.create ~memtable_cap:256 ~l0_runs:2 ());
    Baselines.Matrixkv.store
      (Baselines.Matrixkv.create ~memtable_cap:256 ~l0_sublevels:2 ()) ]

(* -------------------------- Generic per-store checks --------------------- *)

let crud_check (h : Store_intf.store) =
  let c = Clock.create () in
  Alcotest.(check bool) ((Store_intf.name h) ^ ": missing") true
    (get h c 1L = None);
  put h c 1L ~vlen:8;
  Alcotest.(check bool) ((Store_intf.name h) ^ ": present") true
    (get h c 1L <> None);
  Store_intf.delete h c 1L;
  Alcotest.(check bool) ((Store_intf.name h) ^ ": deleted") true
    (get h c 1L = None);
  put h c 1L ~vlen:8;
  Alcotest.(check bool) ((Store_intf.name h) ^ ": reinserted") true
    (get h c 1L <> None)

let test_all_crud () = List.iter crud_check (all_stores ())

let bulk_check (h : Store_intf.store) =
  let c = Clock.create () in
  let n = 8_000 in
  for i = 0 to n - 1 do
    put h c (key i) ~vlen:8
  done;
  for i = 0 to n - 1 do
    if get h c (key i) = None then
      Alcotest.failf "%s: key %d lost during load" (Store_intf.name h) i
  done;
  Model_check.check_invariants h ~context:"after bulk load"

let test_all_bulk () = List.iter bulk_check (all_stores ())

let crash_check (h : Store_intf.store) =
  let c = Clock.create () in
  let n = 4_000 in
  for i = 0 to n - 1 do
    put h c (key i) ~vlen:8
  done;
  Store_intf.crash h;
  let persisted = Vlog.persisted (Store_intf.vlog h) in
  Store_intf.recover h c;
  Model_check.check_invariants h ~context:"after crash+recover";
  for i = 0 to persisted - 1 do
    let k = Vlog.key_at (Store_intf.vlog h) i in
    if get h c k = None then
      Alcotest.failf "%s: persisted entry %d lost across crash"
        (Store_intf.name h) i
  done

let test_all_crash_recover () = List.iter crash_check (all_stores ())

let test_all_model_checked () =
  List.iteri
    (fun i h -> Model_check.run ~ops:6_000 ~universe:600 ~seed:(50 + i) h)
    (all_stores ())

let test_model_with_crashes_lsm_family () =
  List.iteri
    (fun i h ->
      Model_check.run ~ops:6_000 ~universe:500 ~crash_every:1_500
        ~seed:(70 + i) h)
    [ lsm Baselines.Pmem_lsm.Nf ();
      lsm Baselines.Pmem_lsm.F ();
      lsm Baselines.Pmem_lsm.Pink ();
      Baselines.Dram_hash.store (Baselines.Dram_hash.create ());
      Baselines.Hybrid_viper.store (Baselines.Hybrid_viper.create ());
      Baselines.Novelsm.store
        (Baselines.Novelsm.create ~memtable_cap:256 ~l0_runs:2 ());
      Baselines.Matrixkv.store
        (Baselines.Matrixkv.create ~memtable_cap:256 ~l0_sublevels:2 ()) ]

let test_model_with_crashes_pmem_hash () =
  Model_check.run ~ops:4_000 ~universe:400 ~crash_every:1_000 ~seed:81
    (Baselines.Pmem_hash.store (Baselines.Pmem_hash.create ()))

(* ----------------------------- Design signatures ------------------------- *)

let test_pmem_hash_write_amplification () =
  let h = Baselines.Pmem_hash.store (Baselines.Pmem_hash.create ()) in
  let c = Clock.create () in
  for i = 0 to 999 do
    put h c (key i) ~vlen:8
  done;
  let st = Device.stats (Store_intf.device h) in
  let wa = st.Stats.media_write_bytes /. (1000.0 *. 24.0) in
  Alcotest.(check bool)
    (Printf.sprintf "Pmem-Hash logical WA %.1f > 10" wa)
    true (wa > 10.0)

let test_lsm_write_batching () =
  let h = lsm Baselines.Pmem_lsm.Nf () in
  let c = Clock.create () in
  for i = 0 to 9_999 do
    put h c (key i) ~vlen:8
  done;
  Store_intf.flush h c;
  let st = Device.stats (Store_intf.device h) in
  (* batched index writes: device-level amplification stays ~1 *)
  Alcotest.(check bool) "no RMW amplification" true
    (Stats.write_amplification st < 1.1)

let test_dram_hash_restart_scans_whole_log () =
  let mk n =
    let h = Baselines.Dram_hash.store (Baselines.Dram_hash.create ()) in
    let c = Clock.create () in
    for i = 0 to n - 1 do
      put h c (key i) ~vlen:8
    done;
    Store_intf.flush h c;
    Store_intf.crash h;
    let rc = Clock.create () in
    Store_intf.recover h rc;
    Clock.now rc
  in
  let small = mk 2_000 and large = mk 20_000 in
  Alcotest.(check bool)
    (Printf.sprintf "restart scales with log (%.0f vs %.0f)" small large)
    true
    (large > 5.0 *. small)

let test_lsm_restart_is_bounded () =
  (* LSM stores recover the MemTable tail only: restart must not scale with
     total data *)
  let mk n =
    let h = lsm Baselines.Pmem_lsm.Nf () in
    let c = Clock.create () in
    for i = 0 to n - 1 do
      put h c (key i) ~vlen:8
    done;
    Store_intf.crash h;
    let rc = Clock.create () in
    Store_intf.recover h rc;
    Clock.now rc
  in
  let small = mk 4_000 and large = mk 40_000 in
  Alcotest.(check bool)
    (Printf.sprintf "restart bounded (%.0f vs %.0f)" small large)
    true
    (large < 4.0 *. small)

let test_lsm_variant_footprints () =
  let loaded variant =
    let h = lsm variant () in
    let c = Clock.create () in
    for i = 0 to 9_999 do
      put h c (key i) ~vlen:8
    done;
    Store_intf.dram_footprint h
  in
  let nf = loaded Baselines.Pmem_lsm.Nf in
  let f = loaded Baselines.Pmem_lsm.F in
  let pink = loaded Baselines.Pmem_lsm.Pink in
  Alcotest.(check bool) "NF smallest" true (nf < f && nf < pink);
  Alcotest.(check bool) "PinK largest (pinned upper levels)" true (pink > f)

let test_novelsm_memtable_in_pmem () =
  let store = Baselines.Novelsm.create ~memtable_cap:100_000 () in
  let h = Baselines.Novelsm.store store in
  let c = Clock.create () in
  let before =
    (Device.stats (Store_intf.device h)).Stats.media_write_bytes
  in
  (* stays in the (in-Pmem) MemTable: no flush, yet heavy media writes *)
  for i = 0 to 999 do
    put h c (key i) ~vlen:8
  done;
  let delta =
    (Device.stats (Store_intf.device h)).Stats.media_write_bytes -. before
  in
  Alcotest.(check bool) "skiplist writes amplified" true
    (delta > 1000.0 *. 256.0)

let test_matrixkv_rowtable_traffic () =
  let mk_bytes sublevels =
    let h =
      Baselines.Matrixkv.store
        (Baselines.Matrixkv.create ~memtable_cap:128 ~l0_sublevels:sublevels ())
    in
    let c = Clock.create () in
    for i = 0 to 2_000 do
      put h c (key i) ~vlen:8
    done;
    (Device.stats (Store_intf.device h)).Stats.media_write_bytes
  in
  (* flushing more, smaller sublevels costs more RowTable metadata plus
     compaction rewrites *)
  Alcotest.(check bool) "metadata traffic visible" true
    (mk_bytes 2 > 2_000.0 *. 24.0)

let test_pmem_lsm_get_depth () =
  let store = Baselines.Pmem_lsm.create ~cfg:small_cfg Baselines.Pmem_lsm.Nf in
  let h = Baselines.Pmem_lsm.store store in
  let c = Clock.create () in
  for i = 0 to 9_999 do
    put h c (key i) ~vlen:8
  done;
  let deep = ref 0 in
  for i = 0 to 999 do
    let r, depth = Baselines.Pmem_lsm.get_with_level store c (key i) in
    Alcotest.(check bool) "found" true (r <> None);
    if depth > 1 then incr deep
  done;
  Alcotest.(check bool) "multi-level probing happens" true (!deep > 0)

let test_stores_have_names () =
  let names = List.map (fun h -> (Store_intf.name h)) (all_stores ()) in
  Alcotest.(check int) "distinct names" (List.length names)
    (List.length (List.sort_uniq compare names))


let flush_durability_check (h : Store_intf.store) =
  let c = Clock.create () in
  let n = 3_000 in
  for i = 0 to n - 1 do
    put h c (key i) ~vlen:8
  done;
  Store_intf.flush h c;
  (* after an explicit flush, a crash must lose nothing *)
  Store_intf.crash h;
  Store_intf.recover h c;
  for i = 0 to n - 1 do
    if get h c (key i) = None then
      Alcotest.failf "%s: key %d lost despite flush" (Store_intf.name h) i
  done

let test_all_flush_durability () =
  List.iter flush_durability_check (all_stores ())

let test_repeated_crashes () =
  (* crash/recover cycles must be idempotent on a clean store *)
  List.iter
    (fun (h : Store_intf.store) ->
      let c = Clock.create () in
      for i = 0 to 499 do
        put h c (key i) ~vlen:8
      done;
      Store_intf.flush h c;
      for _ = 1 to 3 do
        Store_intf.crash h;
        Store_intf.recover h c
      done;
      for i = 0 to 499 do
        if get h c (key i) = None then
          Alcotest.failf "%s: key %d lost across repeated crashes"
            (Store_intf.name h) i
      done)
    (all_stores ())

let test_update_semantics_all () =
  List.iter
    (fun (h : Store_intf.store) ->
      let c = Clock.create () in
      put h c 9L ~vlen:8;
      let l1 = get h c 9L in
      put h c 9L ~vlen:8;
      let l2 = get h c 9L in
      Alcotest.(check bool)
        ((Store_intf.name h) ^ ": update yields newer location")
        true (l2 > l1))
    (all_stores ())

(* every store must answer the same ordered scan over the same history —
   including ChameleonDB, run through the identical op sequence *)
let test_scan_parity_all () =
  let stores =
    Chameleondb.Store.store (Chameleondb.Store.create ~cfg:small_cfg ())
    :: all_stores ()
  in
  let n = 400 in
  let histories =
    List.map
      (fun h ->
        let c = Clock.create () in
        let rng = Workload.Rng.create ~seed:42 in
        for _ = 1 to 3 * n do
          let i = Workload.Rng.int rng n in
          if Workload.Rng.int rng 10 = 0 then Store_intf.delete h c (key i)
          else put h c (key i) ~vlen:8
        done;
        Store_intf.flush h c;
        (h, c))
      stores
  in
  let reference = List.hd histories in
  let scan (h, c) ~start ~limit =
    List.map fst (Store_intf.scan h c ~start ~limit)
  in
  List.iter
    (fun (start, limit) ->
      let want = scan reference ~start ~limit in
      List.iter
        (fun ((h, _) as hc) ->
          let got = scan hc ~start ~limit in
          if got <> want then
            Alcotest.failf "%s: scan(%Lu,%d) diverges (%d vs %d keys)"
              (Store_intf.name h) start limit (List.length got)
              (List.length want))
        (List.tl histories))
    [ (0L, 2 * n); (key (n / 2), 31); (key (n - 1), 10); (key n, 5) ]

(* ---------------------------- Modelled fingerprint ----------------------- *)

(* Every baseline driven through one fixed seeded stream (puts, group
   commits, gets, deletes, one scan) from four interleaved client clocks
   (always advancing the earliest, as the runner does), then crashed and
   recovered.  The modelled results — final clock, the instant the device
   drains its queues, media write/read bytes, DRAM footprint and restart
   time — are pinned exactly (hex floats), so any refactor of a baseline
   must leave its modelled costs bit-identical. *)
let fingerprint (h : Store_intf.store) =
  let clocks = Array.init 4 (fun _ -> Clock.create ()) in
  let earliest () =
    Array.fold_left
      (fun a c -> if Clock.now c < Clock.now a then c else a)
      clocks.(0) clocks
  in
  let rng = Workload.Rng.create ~seed:2024 in
  let any_key () = key (Workload.Rng.int rng 10_000) in
  for _ = 1 to 16_000 do
    let c = earliest () in
    match Workload.Rng.int rng 10 with
    | 0 | 1 | 2 | 3 -> put h c (any_key ()) ~vlen:(8 + Workload.Rng.int rng 56)
    | 4 ->
      Store_intf.write_batch h c
        (List.init 4 (fun _ -> (any_key (), Store_intf.Sized 16)))
    | 5 -> Store_intf.delete h c (any_key ())
    | _ -> ignore (get h c (any_key ()))
  done;
  ignore (Store_intf.scan h (earliest ()) ~start:(key 100) ~limit:64);
  Store_intf.crash h;
  let c =
    Clock.create
      ~at:(Array.fold_left (fun a c -> Float.max a (Clock.now c)) 0.0 clocks)
      ()
  in
  let t0 = Clock.now c in
  Store_intf.recover h c;
  let dev = Store_intf.device h in
  let st = Device.stats dev in
  Printf.sprintf "clock %h drained %h write %h read %h dram %h restart %h"
    (Clock.now c) (Device.quiesce_at dev) st.Stats.media_write_bytes
    st.Stats.media_read_bytes (Store_intf.dram_footprint h)
    (Clock.now c -. t0)

(* The bit-identity reference: a change to any of these values is a change
   in modelled behaviour, never a refactor. *)
let pinned_fingerprints =
  [ ("Pmem-LSM-NF",
      "clock 0x1.77ca99c5f8e05p+22 drained 0x1.7789315f9279fp+22 write 0x1.b0701p+20 read 0x1.48bp+21 dram 0x1.8p+12 restart 0x1.21e99999998p+12");
    ("Pmem-LSM-F",
      "clock 0x1.41d2320da73cfp+22 drained 0x1.41d4cbe2fc924p+22 write 0x1.c050bp+20 read 0x1.52e4fp+20 dram 0x1.fb78p+13 restart 0x1.1d94cccccccp+13");
    ("Pmem-LSM-PinK",
      "clock 0x1.60c29428f5c4bp+21 drained 0x1.61188428f5c4bp+21 write 0x1.b0701p+20 read 0x1.1d43p+19 dram 0x1.64p+15 restart 0x1.44a4ccccccdp+13");
    ("Pmem-Hash",
      "clock 0x1.52176fe147ce6p+23 drained 0x1.521587e147ce6p+23 write 0x1.f44cp+22 read 0x1.fa575p+22 dram 0x1.54p+12 restart 0x1.166p+12");
    ("Dram-Hash",
      "clock 0x1.af4f69851eb99p+21 drained 0x1.22c4d170a3d98p+20 write 0x1.11a74p+19 read 0x1.4813cp+19 dram 0x1.04p+18 restart 0x1.2c2db6ccccccdp+21");
    ("Hybrid-Viper",
      "clock 0x1.bd6122f258c09p+21 drained 0x1.3ec7deb17e4dfp+20 write 0x1.11b72p+19 read 0x1.4823ap+19 dram 0x1.4p+18 restart 0x1.2c3ebd4444444p+21");
    ("NoveLSM",
      "clock 0x1.ff970e895714dp+24 drained 0x1.ff9734895714dp+24 write 0x1.29eebp+23 read 0x1.66fd02p+23 dram 0x1.d828p+13 restart 0x1.f33b1p+18");
    ("MatrixKV",
      "clock 0x1.2242562b85213p+24 drained 0x1.21d131f62fcbep+24 write 0x1.4e2acp+21 read 0x1.1a66c8p+21 dram 0x1.6714p+14 restart 0x1.df89p+14") ]

let test_fingerprints () =
  List.iter
    (fun h ->
      Alcotest.(check string) (Store_intf.name h)
        (List.assoc (Store_intf.name h) pinned_fingerprints)
        (fingerprint h))
    (all_stores ())

let () =
  Alcotest.run "baselines"
    [ ( "correctness",
        [ Alcotest.test_case "crud (all stores)" `Quick test_all_crud;
          Alcotest.test_case "bulk load (all stores)" `Quick test_all_bulk;
          Alcotest.test_case "crash/recover (all stores)" `Quick
            test_all_crash_recover;
          Alcotest.test_case "model-checked (all stores)" `Quick
            test_all_model_checked;
          Alcotest.test_case "model with crashes (log-replay family)" `Quick
            test_model_with_crashes_lsm_family;
          Alcotest.test_case "model with crashes (pmem-hash)" `Quick
            test_model_with_crashes_pmem_hash;
          Alcotest.test_case "flush durability (all stores)" `Quick
            test_all_flush_durability;
          Alcotest.test_case "repeated crashes (all stores)" `Quick
            test_repeated_crashes;
          Alcotest.test_case "update semantics (all stores)" `Quick
            test_update_semantics_all;
          Alcotest.test_case "scan parity (all stores)" `Quick
            test_scan_parity_all ] );
      ( "design-signatures",
        [ Alcotest.test_case "Pmem-Hash write amplification" `Quick
            test_pmem_hash_write_amplification;
          Alcotest.test_case "LSM write batching" `Quick
            test_lsm_write_batching;
          Alcotest.test_case "Dram-Hash restart scales with log" `Quick
            test_dram_hash_restart_scans_whole_log;
          Alcotest.test_case "LSM restart bounded" `Quick
            test_lsm_restart_is_bounded;
          Alcotest.test_case "variant DRAM footprints" `Quick
            test_lsm_variant_footprints;
          Alcotest.test_case "NoveLSM in-Pmem MemTable" `Quick
            test_novelsm_memtable_in_pmem;
          Alcotest.test_case "MatrixKV RowTable traffic" `Quick
            test_matrixkv_rowtable_traffic;
          Alcotest.test_case "multi-level get depth" `Quick
            test_pmem_lsm_get_depth;
          Alcotest.test_case "distinct store names" `Quick
            test_stores_have_names;
          Alcotest.test_case "modelled fingerprints pinned" `Quick
            test_fingerprints ] ) ]
