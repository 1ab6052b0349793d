module Config = Chameleondb.Config
module Store = Chameleondb.Store
module Clock = Pmem_sim.Clock
module Types = Kv_common.Types
module Vlog = Kv_common.Vlog
module SI = Kv_common.Store_intf
module Checker = Fault.Checker
module Sweep = Fault.Sweep

let key i = Workload.Keyspace.key_of_index i

let put db c k ~vlen = Store.write db c k (SI.Sized vlen)
let get db c k = (Store.read db c k).SI.loc

let small_cfg =
  { Config.default with Config.shards = 4; memtable_slots = 32 }

let cached_cfg ?(cache_bytes = 1 lsl 20) ?(materialize = false) () =
  { small_cfg with
    Config.cache_bytes;
    materialize_values = materialize }

let counter name = Option.value ~default:0.0 (Obs.Counters.find name)

(* ------------------------- Cache unit semantics --------------------------- *)

let test_find_insert_invalidate () =
  let c = Clock.create () in
  let t = Cache.create ~shards:4 ~capacity_bytes:4096 () in
  Alcotest.(check bool) "empty miss" true (Cache.find t c 1L = Cache.Miss);
  Cache.insert t c 1L ~loc:5 ~vlen:8 ();
  (match Cache.find t c 1L with
  | Cache.Hit { loc; vlen; value } ->
    Alcotest.(check int) "loc" 5 loc;
    Alcotest.(check int) "vlen" 8 vlen;
    Alcotest.(check bool) "no payload retained" true (value = None)
  | _ -> Alcotest.fail "expected hit");
  (* re-insert replaces, it does not double-charge *)
  Cache.insert t c 1L ~loc:9 ~vlen:8 ();
  (match Cache.find t c 1L with
  | Cache.Hit { loc; _ } -> Alcotest.(check int) "replaced loc" 9 loc
  | _ -> Alcotest.fail "expected hit after replace");
  Alcotest.(check int) "charged once" (Cache.entry_overhead_bytes + 8)
    (Cache.used_bytes t);
  Cache.insert t c 2L ~loc:7 ~vlen:4 ~value:(Bytes.of_string "abcd") ();
  (match Cache.find t c 2L with
  | Cache.Hit { value = Some v; _ } ->
    Alcotest.(check string) "payload served" "abcd" (Bytes.to_string v)
  | _ -> Alcotest.fail "expected materialized hit");
  Cache.invalidate t c 1L;
  Alcotest.(check bool) "invalidated" true (Cache.find t c 1L = Cache.Miss);
  Cache.clear t;
  Alcotest.(check int) "clear empties" 0 (Cache.used_bytes t);
  Alcotest.(check bool) "cleared" true (Cache.find t c 2L = Cache.Miss)

let test_negative_semantics () =
  let c = Clock.create () in
  let t = Cache.create ~shards:2 ~capacity_bytes:1024 () in
  Cache.insert_negative t c 3L;
  Alcotest.(check bool) "negative hit" true (Cache.find t c 3L = Cache.Negative);
  Cache.invalidate t c 3L;
  Alcotest.(check bool) "negative invalidated" true
    (Cache.find t c 3L = Cache.Miss)

let test_clock_eviction_bounds_capacity () =
  let c = Clock.create () in
  (* one segment, room for exactly five vlen-8 entries *)
  let per = 5 * (Cache.entry_overhead_bytes + 8) in
  let t = Cache.create ~shards:1 ~capacity_bytes:per () in
  for i = 0 to 4 do
    Cache.insert t c (Int64.of_int i) ~loc:i ~vlen:8 ();
    Alcotest.(check bool) "bounded" true (Cache.used_bytes t <= per)
  done;
  (* a sixth entry forces a CLOCK revolution; the oldest unreferenced
     entry goes *)
  Cache.insert t c 5L ~loc:5 ~vlen:8 ();
  Alcotest.(check bool) "still bounded" true (Cache.used_bytes t <= per);
  Alcotest.(check bool) "victim evicted" true (Cache.find t c 0L = Cache.Miss);
  (* second chance: a referenced entry survives the next eviction wave *)
  (match Cache.find t c 1L with
  | Cache.Hit _ -> ()
  | _ -> Alcotest.fail "entry 1 should still be resident");
  Cache.insert t c 6L ~loc:6 ~vlen:8 ();
  (match Cache.find t c 1L with
  | Cache.Hit _ -> ()
  | _ -> Alcotest.fail "referenced entry lost its second chance");
  Alcotest.(check bool) "bounded after churn" true (Cache.used_bytes t <= per);
  (* an entry larger than the whole segment is not cached *)
  Cache.insert t c 7L ~loc:7 ~vlen:(2 * per) ();
  Alcotest.(check bool) "oversized rejected" true (Cache.find t c 7L = Cache.Miss)

let test_relocate_guard () =
  let c = Clock.create () in
  let t = Cache.create ~shards:1 ~capacity_bytes:1024 () in
  Cache.insert t c 1L ~loc:5 ~vlen:8 ();
  Cache.relocate t c 1L ~expect:4 ~loc:99;
  (match Cache.find t c 1L with
  | Cache.Hit { loc; _ } -> Alcotest.(check int) "guard holds" 5 loc
  | _ -> Alcotest.fail "expected hit");
  Cache.relocate t c 1L ~expect:5 ~loc:9;
  (match Cache.find t c 1L with
  | Cache.Hit { loc; _ } -> Alcotest.(check int) "relocated" 9 loc
  | _ -> Alcotest.fail "expected hit");
  (* negative entries never relocate *)
  Cache.insert_negative t c 2L;
  Cache.relocate t c 2L ~expect:Types.tombstone ~loc:3;
  Alcotest.(check bool) "negative untouched" true
    (Cache.find t c 2L = Cache.Negative)

(* ----------------------- Store-level invalidation ------------------------- *)

let test_put_delete_invalidate_inline () =
  let db = Store.create ~cfg:(cached_cfg ~materialize:true ()) () in
  let c = Clock.create () in
  let k = key 7 in
  let read_v () = (Store.read db c k).SI.value in
  Store.write db c k (SI.Payload (Bytes.of_string "alpha"));
  Alcotest.(check (option string)) "first read" (Some "alpha")
    (Option.map Bytes.to_string (read_v ()));
  (* the first read cached the entry; an overwrite must not serve it *)
  Store.write db c k (SI.Payload (Bytes.of_string "beta"));
  Alcotest.(check (option string)) "overwrite visible" (Some "beta")
    (Option.map Bytes.to_string (read_v ()));
  Store.flush_all db c;
  Store.write db c k (SI.Payload (Bytes.of_string "gamma"));
  Alcotest.(check (option string)) "post-flush overwrite" (Some "gamma")
    (Option.map Bytes.to_string (read_v ()));
  Store.delete db c k;
  Alcotest.(check bool) "delete visible through cache" true
    ((Store.read db c k).SI.loc = None);
  Store.write db c k (SI.Payload (Bytes.of_string "delta"));
  Alcotest.(check (option string)) "reinsert after delete" (Some "delta")
    (Option.map Bytes.to_string (read_v ()))

let test_negative_cache_coherent_after_reinsert () =
  let db = Store.create ~cfg:(cached_cfg ~materialize:true ()) () in
  let c = Clock.create () in
  let k = key 42 in
  Alcotest.(check bool) "absent" true ((Store.read db c k).SI.loc = None);
  (* the second miss is served from the negative entry *)
  let r = Store.read db c k in
  Alcotest.(check bool) "negative served from cache" true
    (r.SI.loc = None && r.SI.stage = SI.Cache);
  Store.write db c k (SI.Payload (Bytes.of_string "back"));
  let r = Store.read db c k in
  Alcotest.(check (option string)) "reinsertion unmasked" (Some "back")
    (Option.map Bytes.to_string r.SI.value)

let test_gc_relocates_cached_locations () =
  let db = Store.create ~cfg:(cached_cfg ~materialize:true ()) () in
  let c = Clock.create () in
  let n = 1_000 in
  let payload round i = Bytes.of_string (Printf.sprintf "r%d-%d" round i) in
  for round = 1 to 3 do
    for i = 0 to n - 1 do
      Store.write db c (key i) (SI.Payload (payload round i))
    done
  done;
  (* populate the cache with current locations, then move the whole log *)
  for i = 0 to n - 1 do
    ignore (Store.read db c (key i))
  done;
  let reloc0 = counter "cache.relocations" in
  let stats = Store.gc db c ~max_entries:(3 * n) () in
  Alcotest.(check int) "all live versions copied" n stats.Store.gc_live;
  Alcotest.(check bool) "cached locations rewritten" true
    (counter "cache.relocations" -. reloc0 >= float_of_int (n / 2));
  let vlog = Store.vlog db in
  for i = 0 to n - 1 do
    match Store.read db c (key i) with
    | { SI.loc = Some loc; value = Some v; _ } ->
      if Bytes.to_string v <> Bytes.to_string (payload 3 i) then
        Alcotest.failf "key %d served stale value %s" i (Bytes.to_string v);
      (* the cached location must point at the relocated record *)
      if Vlog.key_at vlog loc <> key i then
        Alcotest.failf "key %d cached a dangling location" i
    | _ -> Alcotest.failf "key %d lost across GC" i
  done

let test_crash_drops_cache () =
  let db = Store.create ~cfg:(cached_cfg ()) () in
  let c = Clock.create () in
  put db c (key 1) ~vlen:8;
  Store.flush_all db c;
  (* an unpersisted tail write, read back through the cache *)
  put db c (key 2) ~vlen:8;
  Alcotest.(check bool) "tail visible before crash" true
    (get db c (key 2) <> None);
  Store.crash db;
  (match Store.cache_stats db with
  | Some (used, _) -> Alcotest.(check int) "cache emptied by crash" 0 used
  | None -> Alcotest.fail "cache expected");
  let rc = Clock.create ~at:(Clock.now c) () in
  ignore (Store.recover db rc);
  Alcotest.(check bool) "persisted key survives" true
    (get db rc (key 1) <> None);
  Alcotest.(check bool) "rolled-back key not served from cache" true
    (get db rc (key 2) = None)

(* --------------------- Cached / uncached equivalence ---------------------- *)

(* The cache must be semantically invisible: an identical op sequence on a
   cached and an uncached store — across flushes, GC, and a crash — yields
   identical locations for every key. *)
let test_cached_matches_uncached () =
  let cached = Store.create ~cfg:(cached_cfg ~cache_bytes:(1 lsl 16) ()) () in
  let plain = Store.create ~cfg:small_cfg () in
  let c1 = Clock.create () and c2 = Clock.create () in
  let universe = 400 in
  let rng = Workload.Rng.create ~seed:17 in
  let both f = f cached c1; f plain c2 in
  let agree label =
    for i = 0 to universe - 1 do
      let a = get cached c1 (key i) in
      let b = get plain c2 (key i) in
      if a <> b then Alcotest.failf "%s: key %d diverged" label i
    done
  in
  for step = 1 to 4_000 do
    let k = key (Workload.Rng.int rng universe) in
    (match Workload.Rng.int rng 10 with
    | 0 -> both (fun db c -> Store.delete db c k)
    | 1 | 2 | 3 -> both (fun db c -> put db c k ~vlen:8)
    | _ -> both (fun db c -> ignore (get db c k)));
    if step mod 1_000 = 0 then both (fun db c -> Store.flush_all db c)
  done;
  agree "after mixed ops";
  both (fun db c -> ignore (Store.gc db c ~max_entries:2_000 ()));
  agree "after GC";
  both (fun db c -> Store.flush_all db c);
  both (fun db _ -> Store.crash db);
  let r1 = Clock.create ~at:(Clock.now c1) () in
  let r2 = Clock.create ~at:(Clock.now c2) () in
  ignore (Store.recover cached r1);
  ignore (Store.recover plain r2);
  for i = 0 to universe - 1 do
    let a = get cached r1 (key i) in
    let b = get plain r2 (key i) in
    if a <> b then Alcotest.failf "after crash+recover: key %d diverged" i
  done

(* ------------------------------ Footprint --------------------------------- *)

let test_dram_footprint_accounts_cache () =
  let cache_bytes = 1 lsl 16 in
  let cached = Store.create ~cfg:(cached_cfg ~cache_bytes ()) () in
  let plain = Store.create ~cfg:small_cfg () in
  let c1 = Clock.create () and c2 = Clock.create () in
  let n = 3_000 in
  for i = 0 to n - 1 do
    put cached c1 (key i) ~vlen:8;
    put plain c2 (key i) ~vlen:8
  done;
  for i = 0 to n - 1 do
    ignore (get cached c1 (key i));
    ignore (get plain c2 (key i))
  done;
  let used, cap =
    match Store.cache_stats cached with
    | Some (u, c) -> (u, c)
    | None -> Alcotest.fail "cache expected"
  in
  Alcotest.(check bool) "cache populated" true (used > 0);
  Alcotest.(check bool) "within configured capacity" true
    (used <= cap && cap <= cache_bytes);
  let diff = Store.dram_footprint cached -. Store.dram_footprint plain in
  Alcotest.(check (float 0.01)) "footprint delta is the cache"
    (float_of_int used) diff;
  Alcotest.(check bool) "uncached store has no cache stats" true
    (Store.cache_stats plain = None)

(* --------------------------- Fault injection ------------------------------ *)

(* Same scale as test_fault's checker cases, with the cache on top: stale
   cache entries surviving a crash would surface as resurrection
   violations here. *)
let cached_make () =
  let cfg =
    { (Harness.Stores.chameleon_cfg Harness.Stores.quick) with
      Config.cache_bytes = 1 lsl 20 }
  in
  Store.store (Store.create ~cfg ())

let test_checker_clean_run_with_cache () =
  let o = Checker.run_case ~make:cached_make ~ops:2_000 ~universe:200 ~seed:7 () in
  Alcotest.(check (list string)) "no violations" [] o.Checker.violations

let test_fault_sweep_with_cache () =
  let v =
    Sweep.run_store ~name:"ChameleonDB-cached" ~make:cached_make ~seeds:[ 1 ]
      ~ops:2_000 ~universe:200 ()
  in
  Alcotest.(check bool) "crashes fired" true (v.Sweep.v_fired > 0);
  if not (Sweep.passed v) then begin
    List.iter
      (fun f -> List.iter print_endline f.Sweep.f_violations)
      v.Sweep.v_failures;
    Alcotest.fail "fault sweep with cache enabled reported violations"
  end

let () =
  Alcotest.run "cache"
    [ ( "unit",
        [ Alcotest.test_case "find / insert / invalidate" `Quick
            test_find_insert_invalidate;
          Alcotest.test_case "negative entries" `Quick test_negative_semantics;
          Alcotest.test_case "CLOCK eviction bounds capacity" `Quick
            test_clock_eviction_bounds_capacity;
          Alcotest.test_case "relocate guard" `Quick test_relocate_guard ] );
      ( "store",
        [ Alcotest.test_case "put/delete invalidate in-line" `Quick
            test_put_delete_invalidate_inline;
          Alcotest.test_case "negative entry coherent after reinsert" `Quick
            test_negative_cache_coherent_after_reinsert;
          Alcotest.test_case "GC relocates cached locations" `Quick
            test_gc_relocates_cached_locations;
          Alcotest.test_case "crash drops the cache" `Quick
            test_crash_drops_cache;
          Alcotest.test_case "cached store matches uncached" `Quick
            test_cached_matches_uncached;
          Alcotest.test_case "dram footprint accounts the cache" `Quick
            test_dram_footprint_accounts_cache ] );
      ( "fault",
        [ Alcotest.test_case "checker clean run" `Quick
            test_checker_clean_run_with_cache;
          Alcotest.test_case "crash sweep, cache enabled" `Quick
            test_fault_sweep_with_cache ] ) ]
