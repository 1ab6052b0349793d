module Clock = Pmem_sim.Clock
module Device = Pmem_sim.Device
module CM = Pmem_sim.Cost_model
module Types = Kv_common.Types
module Hash = Kv_common.Hash
module Bloom = Kv_common.Bloom
module Flat = Kv_common.Flat_table
module LT = Kv_common.Linear_table
module RH = Kv_common.Robinhood
module SL = Kv_common.Skiplist
module Cceh = Kv_common.Cceh
module Vlog = Kv_common.Vlog

let key i = Workload.Keyspace.key_of_index i
let dev () = Device.create CM.optane

(* ---------------------------------- Hash --------------------------------- *)

let test_mix64_spreads () =
  (* consecutive integers land in distinct, well-spread buckets *)
  let seen = Hashtbl.create 64 in
  for i = 1 to 1000 do
    Hashtbl.replace seen (Hash.mix64 (Int64.of_int i)) ()
  done;
  Alcotest.(check int) "no collisions" 1000 (Hashtbl.length seen)

let test_to_int_nonneg () =
  Alcotest.(check bool) "min_int hash nonneg" true
    (Hash.to_int (Hash.mix64 Int64.min_int) >= 0)

let prop_to_int_nonneg =
  QCheck.Test.make ~name:"to_int always non-negative" ~count:1000
    QCheck.int64 (fun v -> Hash.to_int v >= 0)

let prop_slot_in_range =
  QCheck.Test.make ~name:"slot_of in range" ~count:500
    QCheck.(pair int64 (int_range 1 10_000))
    (fun (h, slots) ->
      let s = Hash.slot_of ~hash:h ~slots in
      s >= 0 && s < slots)

let prop_shard_in_range =
  QCheck.Test.make ~name:"shard_of in range" ~count:500
    QCheck.(pair int64 (int_range 1 16_384))
    (fun (h, shards) ->
      let s = Hash.shard_of ~hash:h ~shards in
      s >= 0 && s < shards)

let test_shard_balance () =
  let shards = 16 in
  let counts = Array.make shards 0 in
  let n = 16_000 in
  for i = 0 to n - 1 do
    let s = Hash.shard_of ~hash:(Hash.mix64 (key i)) ~shards in
    counts.(s) <- counts.(s) + 1
  done;
  Array.iteri
    (fun s c ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d within 30%% of mean (%d)" s c)
        true
        (c > n / shards * 7 / 10 && c < n / shards * 13 / 10))
    counts

(* ---------------------------------- Bloom -------------------------------- *)

let test_bloom_no_false_negative () =
  let b = Bloom.create ~expected:1000 ~bits_per_key:10 in
  let c = Clock.create () in
  for i = 0 to 999 do
    Bloom.add b c (key i)
  done;
  for i = 0 to 999 do
    Alcotest.(check bool) "member" true (Bloom.mem b c (key i))
  done

let test_bloom_fp_rate () =
  let b = Bloom.create ~expected:10_000 ~bits_per_key:10 in
  for i = 0 to 9_999 do
    Bloom.add_silent b (key i)
  done;
  let fps = ref 0 in
  for i = 10_000 to 19_999 do
    if Bloom.mem_silent b (key i) then incr fps
  done;
  (* 10 bits/key -> ~1% theoretical; accept < 5% *)
  Alcotest.(check bool)
    (Printf.sprintf "fp rate %d/10000" !fps)
    true (!fps < 500)

let test_bloom_charges_time () =
  let b = Bloom.create ~expected:16 ~bits_per_key:10 in
  let c = Clock.create () in
  Bloom.add b c 1L;
  let t1 = Clock.now c in
  ignore (Bloom.mem b c 1L);
  Alcotest.(check bool) "build charged" true (t1 > 0.0);
  Alcotest.(check bool) "check charged" true (Clock.now c > t1)

let prop_bloom_never_false_negative =
  QCheck.Test.make ~name:"bloom: no false negatives" ~count:100
    QCheck.(list_of_size Gen.(1 -- 200) (int_range 1 1_000_000))
    (fun ixs ->
      let b = Bloom.create ~expected:(List.length ixs) ~bits_per_key:8 in
      List.iter (fun i -> Bloom.add_silent b (key i)) ixs;
      List.for_all (fun i -> Bloom.mem_silent b (key i)) ixs)

(* -------------------------------- Flat_table ----------------------------- *)

let test_flat_put_get () =
  let t = Flat.create ~slots:64 () in
  let c = Clock.create () in
  Alcotest.(check bool) "absent" true (Flat.get t c 1L = None);
  Alcotest.(check bool) "insert ok" true (Flat.put t c 1L 10 = `Ok);
  Alcotest.(check bool) "present" true (Flat.get t c 1L = Some 10);
  Alcotest.(check bool) "update ok" true (Flat.put t c 1L 20 = `Ok);
  Alcotest.(check bool) "updated" true (Flat.get t c 1L = Some 20);
  Alcotest.(check int) "count counts keys" 1 (Flat.count t)

let test_flat_full () =
  let t = Flat.create ~load_factor:0.5 ~slots:8 () in
  let c = Clock.create () in
  for i = 1 to 4 do
    Alcotest.(check bool) "fits" true (Flat.put t c (key i) i = `Ok)
  done;
  Alcotest.(check bool) "is_full" true (Flat.is_full t);
  Alcotest.(check bool) "new key rejected" true
    (Flat.put t c (key 99) 0 = `Full);
  (* updates of existing keys still work at capacity *)
  Alcotest.(check bool) "update allowed" true (Flat.put t c (key 1) 7 = `Ok)

let test_flat_clear_iter () =
  let t = Flat.create ~slots:32 () in
  let c = Clock.create () in
  for i = 1 to 10 do
    Flat.put_exn t c (key i) i
  done;
  let n = ref 0 in
  Flat.iter t (fun _ _ -> incr n);
  Alcotest.(check int) "iterates all" 10 !n;
  Flat.clear t;
  Alcotest.(check int) "cleared" 0 (Flat.count t);
  Alcotest.(check bool) "get after clear" true (Flat.get t c (key 1) = None)

let test_flat_tombstone_values () =
  let t = Flat.create ~slots:16 () in
  let c = Clock.create () in
  Flat.put_exn t c 5L Types.tombstone;
  Alcotest.(check bool) "tombstone stored" true
    (Flat.get t c 5L = Some Types.tombstone)

let prop_flat_vs_model =
  QCheck.Test.make ~name:"flat_table matches model map" ~count:100
    QCheck.(list (pair (int_range 1 50) (int_range 0 1_000)))
    (fun ops ->
      let t = Flat.create ~load_factor:0.9 ~slots:256 () in
      let c = Clock.create () in
      let m = Hashtbl.create 64 in
      List.for_all
        (fun (k, v) ->
          let kk = key k in
          match Flat.put t c kk v with
          | `Ok ->
            Hashtbl.replace m kk v;
            Flat.get t c kk = Some v
          | `Full -> not (Hashtbl.mem m kk))
        ops
      && Hashtbl.fold (fun k v acc -> acc && Flat.get t c k = Some v) m true)

(* ------------------------------- Linear_table ---------------------------- *)

let test_lt_build_get () =
  let d = dev () in
  let c = Clock.create () in
  let entries = List.init 50 (fun i -> (key i, i * 3)) in
  let t = LT.build d c ~slots:128 entries in
  Alcotest.(check int) "count" 50 (LT.count t);
  List.iter
    (fun (k, v) ->
      Alcotest.(check bool) "present" true (LT.get t c k = LT.Found v))
    entries;
  Alcotest.(check bool) "absent" true (LT.get t c (key 999) = LT.Absent)

let test_lt_later_binding_wins () =
  let d = dev () in
  let c = Clock.create () in
  let t = LT.build d c ~slots:16 [ (7L, 1); (7L, 2) ] in
  Alcotest.(check bool) "newest wins" true (LT.get t c 7L = LT.Found 2);
  Alcotest.(check int) "deduped" 1 (LT.count t)

let test_lt_overfull_rejected () =
  let d = dev () in
  let c = Clock.create () in
  let entries = List.init 20 (fun i -> (key i, i)) in
  Alcotest.check_raises "overfull"
    (Invalid_argument "Linear_table.build: overfull") (fun () ->
      ignore (LT.build d c ~slots:16 entries))

let test_lt_iter_and_silent () =
  let d = dev () in
  let c = Clock.create () in
  let entries = List.init 30 (fun i -> (key i, i)) in
  let t = LT.build d c ~slots:64 entries in
  let seen = Hashtbl.create 32 in
  LT.iter t c (fun k v -> Hashtbl.replace seen k v);
  Alcotest.(check int) "iter count" 30 (Hashtbl.length seen);
  let seen2 = Hashtbl.create 32 in
  LT.iter_silent t (fun k v -> Hashtbl.replace seen2 k v);
  Alcotest.(check int) "silent count" 30 (Hashtbl.length seen2);
  let r, probes = LT.get_silent t (key 3) in
  Alcotest.(check bool) "silent get" true (r = Some 3);
  Alcotest.(check bool) "probes >= 1" true (probes >= 1)

let test_lt_persists_to_device () =
  let d = dev () in
  let c = Clock.create () in
  let t = LT.build d c ~slots:16 [ (1L, 1) ] in
  Device.crash d;
  (* built tables are persisted: crash must not lose them *)
  Alcotest.(check bool) "survives crash" true (LT.get t c 1L = LT.Found 1)

let test_lt_media_accounting () =
  let d = dev () in
  let c = Clock.create () in
  let before = (Device.stats d).Pmem_sim.Stats.media_write_bytes in
  ignore (LT.build d c ~slots:256 [ (1L, 1) ]);
  let delta = (Device.stats d).Pmem_sim.Stats.media_write_bytes -. before in
  Alcotest.(check (float 0.0)) "one table write" (float_of_int (256 * 16))
    delta

let test_lt_tag () =
  let d = dev () in
  let c = Clock.create () in
  let t = LT.build d c ~slots:16 [] in
  Alcotest.(check int) "default tag" 0 (LT.tag t);
  LT.set_tag t 42;
  Alcotest.(check int) "set tag" 42 (LT.tag t)

let prop_lt_vs_model =
  QCheck.Test.make ~name:"linear_table build matches model" ~count:100
    QCheck.(list (pair (int_range 1 60) small_nat))
    (fun pairs ->
      let d = dev () in
      let c = Clock.create () in
      let t =
        LT.build d c ~slots:256 (List.map (fun (k, v) -> (key k, v)) pairs)
      in
      let m = Hashtbl.create 64 in
      List.iter (fun (k, v) -> Hashtbl.replace m (key k) v) pairs;
      Hashtbl.fold (fun k v acc -> acc && LT.get t c k = LT.Found v) m true)

(* ----------------------------- Sorted runs ------------------------------- *)

let test_lt_sorted_build_get () =
  let d = dev () in
  let c = Clock.create () in
  (* shuffled input with a duplicate: build sorts and keeps the last binding *)
  let entries =
    [ (key 30, 1); (key 10, 2); (key 50, 3); (key 20, 4); (key 40, 5);
      (key 10, 99) ]
  in
  let t = LT.build_sorted d c entries in
  Alcotest.(check bool) "sorted" true (LT.is_sorted t);
  Alcotest.(check bool) "hashed build is not" false
    (LT.is_sorted (LT.build d c ~slots:16 [ (1L, 1) ]));
  Alcotest.(check int) "deduped count" 5 (LT.count t);
  Alcotest.(check bool) "last binding wins" true
    (LT.get t c (key 10) = LT.Found 99);
  List.iter
    (fun (k, v) ->
      Alcotest.(check bool) "point get" true (LT.get t c (key k) = LT.Found v))
    [ (20, 4); (30, 1); (40, 5); (50, 3) ];
  Alcotest.(check bool) "absent" true (LT.get t c (key 25) = LT.Absent);
  Alcotest.(check bool) "fence index in DRAM" true (LT.dram_bytes t > 0);
  (* iter streams in ascending key order *)
  let seen = ref [] in
  LT.iter t c (fun k _ -> seen := k :: !seen);
  let keys = List.rev !seen in
  Alcotest.(check int) "iter count" 5 (List.length keys);
  Alcotest.(check bool) "iter ascending" true
    (List.sort Types.key_compare keys = keys)

let test_lt_sorted_cursor () =
  let d = dev () in
  let c = Clock.create () in
  let n = 200 in
  let entries = List.init n (fun i -> (key i, i)) in
  let t = LT.build_sorted d c entries in
  (* start mid-range: first entry is the smallest key >= start *)
  let sorted_keys = List.sort Types.key_compare (List.map fst entries) in
  let start = List.nth sorted_keys (n / 2) in
  let cur = LT.cursor t c ~start in
  let rec drain acc =
    match LT.cursor_next cur with
    | `Entry (k, _) -> drain (k :: acc)
    | `End -> List.rev acc
    | `Corrupt -> Alcotest.fail "cursor corrupt on a healthy run"
  in
  let got = drain [] in
  let want =
    List.filter (fun k -> Types.key_compare k start >= 0) sorted_keys
  in
  Alcotest.(check bool) "cursor yields exactly the suffix" true (got = want);
  (* past the end *)
  let last = List.nth sorted_keys (n - 1) in
  let cur2 = LT.cursor t c ~start:(Int64.add last 1L) in
  Alcotest.(check bool) "past-end cursor is empty" true
    (LT.cursor_next cur2 = `End);
  (* hashed runs have no order to expose *)
  let h = LT.build d c ~slots:16 [ (1L, 1) ] in
  match LT.cursor h c ~start:0L with
  | _ -> Alcotest.fail "cursor on hashed run accepted"
  | exception Invalid_argument _ -> ()

let test_lt_sorted_cursor_lazy () =
  (* a short scan must not pay for the whole run: one unit read, not all *)
  let d = dev () in
  let c = Clock.create () in
  let n = 4_096 in
  let t = LT.build_sorted d c (List.init n (fun i -> (key i, i))) in
  let before = (Device.stats d).Pmem_sim.Stats.media_read_bytes in
  let cur = LT.cursor t c ~start:0L in
  (match LT.cursor_next cur with
  | `Entry _ -> ()
  | _ -> Alcotest.fail "empty cursor");
  let delta = (Device.stats d).Pmem_sim.Stats.media_read_bytes -. before in
  Alcotest.(check bool)
    (Printf.sprintf "one unit touched, not the whole run (read %.0f B)" delta)
    true
    (delta > 0.0 && delta < float_of_int (LT.byte_size t) /. 4.0)

(* ------------------------------ Scan algebra ----------------------------- *)

module Scan = Kv_common.Scan

let drain_stream s =
  let rec go acc =
    match s () with
    | Scan.Next e -> go (e :: acc)
    | Scan.Done -> (List.rev acc, `Ok)
    | Scan.Error -> (List.rev acc, `Corrupt)
  in
  go []

let test_scan_merge_newest_wins () =
  (* same key in several streams: the earliest stream in the list wins *)
  let newest = Scan.of_sorted [ (2L, 20); (4L, 40) ] in
  let mid = Scan.of_sorted [ (1L, 100); (2L, 200) ] in
  let oldest = Scan.of_sorted [ (2L, 2000); (3L, 3000); (4L, 4000) ] in
  let got, status = drain_stream (Scan.merge [ newest; mid; oldest ]) in
  Alcotest.(check bool) "clean" true (status = `Ok);
  Alcotest.(check bool) "newest wins on ties, order kept" true
    (got = [ (1L, 100); (2L, 20); (3L, 3000); (4L, 40) ])

let test_scan_tombstone_masks_then_drops () =
  (* tombstone in the newer stream must mask the older binding through the
     merge, then vanish under [live] *)
  let newer () = Scan.of_sorted [ (2L, Types.tombstone) ] in
  let older () = Scan.of_sorted [ (1L, 10); (2L, 20); (3L, 30) ] in
  let merged, _ = drain_stream (Scan.merge [ newer (); older () ]) in
  Alcotest.(check bool) "tombstone survives merge" true
    (List.exists (fun (k, l) -> k = 2L && Types.is_tombstone l) merged);
  let live, status =
    drain_stream (Scan.live (Scan.merge [ newer (); older () ]))
  in
  Alcotest.(check bool) "clean" true (status = `Ok);
  Alcotest.(check bool) "deleted key gone, not resurrected" true
    (live = [ (1L, 10); (3L, 30) ])

let test_scan_error_fail_stop () =
  (* one broken source poisons the merged stream; entries pulled before the
     failure are kept, status reports corruption *)
  let fine = Scan.of_sorted [ (1L, 10); (5L, 50) ] in
  let broken =
    let n = ref 0 in
    fun () ->
      incr n;
      if !n = 1 then Scan.Next (2L, 20) else Scan.Error
  in
  let entries, status = Scan.take (Scan.merge [ fine; broken ]) ~limit:10 in
  Alcotest.(check bool) "corrupt reported" true (status = `Corrupt);
  Alcotest.(check bool) "prefix before failure kept" true
    (List.for_all (fun (k, _) -> k < 3L) entries);
  (* fail-stop: pulling again still errors *)
  let s = Scan.merge [ broken ] in
  ignore (s ());
  Alcotest.(check bool) "sticky" true (s () = Scan.Error && s () = Scan.Error)

let test_scan_take_and_of_iter () =
  let c = Clock.create () in
  let tbl = [ (5L, 1); (1L, 2); (9L, 3); (3L, 4) ] in
  let s =
    Scan.of_iter c ~start:3L (fun f -> List.iter (fun (k, v) -> f k v) tbl)
  in
  let entries, status = Scan.take s ~limit:2 in
  Alcotest.(check bool) "clean" true (status = `Ok);
  Alcotest.(check bool) "sorted, filtered, limited" true
    (entries = [ (3L, 4); (5L, 1) ]);
  (* Differential against the list snapshot [of_iter] replaced: keep the
     in-range entries (prepended, so reversed), stable-sort them, charge
     the walk then the sort.  Keys with the top bit set exercise unsigned
     order; a small key pool forces duplicates, which the reversed list
     plus stable sort yields last-visited first. *)
  let reference clock ~start tbl =
    let kept =
      List.fold_left
        (fun acc (k, l) ->
          if Types.key_compare k start >= 0 then (k, l) :: acc else acc)
        [] tbl
    in
    Clock.advance clock
      (float_of_int (List.length tbl) *. CM.scan_per_entry_ns);
    Clock.advance clock (CM.sort_per_key_ns *. float_of_int (List.length kept));
    List.stable_sort (fun (a, _) (b, _) -> Types.key_compare a b) kept
  in
  let rng = Random.State.make [| 42 |] in
  for round = 1 to 300 do
    let pool =
      Array.init
        (1 + Random.State.int rng 40)
        (fun _ ->
          let k = Random.State.int64 rng Int64.max_int in
          if Random.State.bool rng then Int64.logor k Int64.min_int else k)
    in
    let tbl =
      List.init (Random.State.int rng 500) (fun loc ->
          (pool.(Random.State.int rng (Array.length pool)), loc))
    in
    let start =
      match Random.State.int rng 3 with
      | 0 -> 0L
      | 1 -> pool.(Random.State.int rng (Array.length pool))
      | _ -> Random.State.int64 rng Int64.max_int
    in
    let rc = Clock.create ~at:(Clock.now c) () in
    let expect = reference rc ~start tbl in
    let got, _ =
      Scan.take
        (Scan.of_iter c ~start (fun f -> List.iter (fun (k, v) -> f k v) tbl))
        ~limit:max_int
    in
    Alcotest.(check bool)
      (Printf.sprintf "round %d order" round)
      true (got = expect);
    Alcotest.(check (float 0.)) (Printf.sprintf "round %d charge" round)
      (Clock.now rc) (Clock.now c)
  done

(* -------------------------------- Robinhood ------------------------------ *)

let test_rh_basic () =
  let t = RH.create () in
  let c = Clock.create () in
  RH.put t c 1L 10;
  RH.put t c 2L 20;
  Alcotest.(check bool) "get 1" true (RH.get t c 1L = Some 10);
  Alcotest.(check bool) "get 2" true (RH.get t c 2L = Some 20);
  Alcotest.(check bool) "absent" true (RH.get t c 3L = None);
  Alcotest.(check bool) "delete" true (RH.delete t c 1L);
  Alcotest.(check bool) "gone" true (RH.get t c 1L = None);
  Alcotest.(check bool) "delete absent" false (RH.delete t c 1L);
  Alcotest.(check int) "count" 1 (RH.count t)

let test_rh_grows () =
  let t = RH.create ~initial_slots:8 () in
  let c = Clock.create () in
  for i = 1 to 1000 do
    RH.put t c (key i) i
  done;
  Alcotest.(check int) "all inserted" 1000 (RH.count t);
  Alcotest.(check bool) "rehashed" true (RH.rehash_count t > 0);
  Alcotest.(check bool) "capacity grew" true (RH.capacity t >= 1024);
  for i = 1 to 1000 do
    Alcotest.(check bool) "still present" true (RH.get t c (key i) = Some i)
  done

let test_rh_rehash_latency_spike () =
  let t = RH.create ~initial_slots:8 () in
  let c = Clock.create () in
  let worst = ref 0.0 in
  for i = 1 to 10_000 do
    let t0 = Clock.now c in
    RH.put t c (key i) i;
    worst := Float.max !worst (Clock.now c -. t0)
  done;
  (* the final doubling rehashes >= 8192 slots at >= 4 ns each *)
  Alcotest.(check bool) "rehash pause visible" true (!worst >= 8192.0 *. 4.0)

let prop_rh_vs_model =
  QCheck.Test.make ~name:"robinhood matches model incl. deletes" ~count:100
    QCheck.(list (pair (int_range 1 100) (option small_nat)))
    (fun ops ->
      let t = RH.create ~initial_slots:8 () in
      let c = Clock.create () in
      let m = Hashtbl.create 64 in
      List.iter
        (fun (k, v) ->
          let kk = key k in
          match v with
          | Some v ->
            RH.put t c kk v;
            Hashtbl.replace m kk v
          | None ->
            ignore (RH.delete t c kk);
            Hashtbl.remove m kk)
        ops;
      Hashtbl.fold (fun k v acc -> acc && RH.get t c k = Some v) m true
      && RH.count t = Hashtbl.length m)

(* --------------------------------- Skiplist ------------------------------ *)

let test_sl_sorted_iteration () =
  let d = dev () in
  let t = SL.create d in
  let c = Clock.create () in
  let keys = [ 50L; 10L; 30L; 20L; 40L ] in
  List.iteri (fun i k -> SL.put t c k i) keys;
  let order = ref [] in
  SL.iter t (fun k _ -> order := k :: !order);
  Alcotest.(check (list int64)) "ascending" [ 10L; 20L; 30L; 40L; 50L ]
    (List.rev !order);
  Alcotest.(check int) "count" 5 (SL.count t)

let test_sl_update_in_place () =
  let d = dev () in
  let t = SL.create d in
  let c = Clock.create () in
  SL.put t c 5L 1;
  SL.put t c 5L 2;
  Alcotest.(check int) "count unchanged" 1 (SL.count t);
  Alcotest.(check bool) "newest" true (SL.get t c 5L = Some 2)

let test_sl_pmem_traffic () =
  let d = dev () in
  let t = SL.create d in
  let c = Clock.create () in
  for i = 1 to 100 do
    SL.put t c (key i) i
  done;
  let st = Device.stats d in
  (* every insert persists small writes in place: heavy amplification *)
  Alcotest.(check bool) "media write per insert" true
    (st.Pmem_sim.Stats.media_write_bytes >= 100.0 *. 256.0)

let test_sl_clear () =
  let d = dev () in
  let t = SL.create d in
  let c = Clock.create () in
  SL.put t c 1L 1;
  SL.clear t;
  Alcotest.(check int) "count" 0 (SL.count t);
  Alcotest.(check bool) "gone" true (SL.get t c 1L = None);
  Alcotest.(check int) "bytes" 0 (SL.byte_size t)

let prop_sl_vs_model =
  QCheck.Test.make ~name:"skiplist matches model" ~count:100
    QCheck.(list (pair (int_range 1 80) small_nat))
    (fun ops ->
      let d = dev () in
      let t = SL.create d in
      let c = Clock.create () in
      let m = Hashtbl.create 64 in
      List.iter
        (fun (k, v) ->
          SL.put t c (key k) v;
          Hashtbl.replace m (key k) v)
        ops;
      Hashtbl.fold (fun k v acc -> acc && SL.get t c k = Some v) m true
      && SL.count t = Hashtbl.length m)

(* ----------------------------------- CCEH -------------------------------- *)

let test_cceh_basic () =
  let d = dev () in
  let t = Cceh.create ~segment_slots:64 ~probe_limit:8 d in
  let c = Clock.create () in
  Cceh.put t c 1L 10;
  Alcotest.(check bool) "get" true (Cceh.get t c 1L = Some 10);
  Cceh.put t c 1L 11;
  Alcotest.(check bool) "update" true (Cceh.get t c 1L = Some 11);
  Alcotest.(check bool) "absent" true (Cceh.get t c 2L = None);
  Alcotest.(check bool) "delete" true (Cceh.delete t c 1L);
  Alcotest.(check bool) "tombstoned" true
    (Cceh.get t c 1L = Some Types.tombstone)

let test_cceh_splits () =
  let d = dev () in
  let t = Cceh.create ~segment_slots:64 ~probe_limit:4 d in
  let c = Clock.create () in
  for i = 1 to 2_000 do
    Cceh.put t c (key i) i
  done;
  Alcotest.(check bool) "segments split" true (Cceh.splits t > 0);
  Alcotest.(check bool) "directory grew" true (Cceh.global_depth t > 1);
  for i = 1 to 2_000 do
    Alcotest.(check bool) "survives splits" true
      (Cceh.get t c (key i) = Some i)
  done

let test_cceh_small_write_amplification () =
  let d = dev () in
  let t = Cceh.create d in
  let c = Clock.create () in
  let before = (Device.stats d).Pmem_sim.Stats.media_write_bytes in
  for i = 1 to 100 do
    Cceh.put t c (key i) i
  done;
  let delta = (Device.stats d).Pmem_sim.Stats.media_write_bytes -. before in
  (* each 16 B slot write burns >= one 256 B media unit *)
  Alcotest.(check bool) "heavy amplification" true (delta >= 100.0 *. 256.0)

let test_cceh_recover_cheap () =
  let d = dev () in
  let t = Cceh.create d in
  let c = Clock.create () in
  for i = 1 to 500 do
    Cceh.put t c (key i) i
  done;
  let rc = Clock.create () in
  Cceh.recover t rc;
  (* directory rebuild reads one header per segment: microseconds, not a
     log scan *)
  Alcotest.(check bool) "fast recovery" true (Clock.now rc < 1_000_000.0)

let prop_cceh_vs_model =
  QCheck.Test.make ~name:"cceh matches model across splits" ~count:50
    QCheck.(list_of_size Gen.(0 -- 400) (pair (int_range 1 200) small_nat))
    (fun ops ->
      let d = dev () in
      let t = Cceh.create ~segment_slots:64 ~probe_limit:4 d in
      let c = Clock.create () in
      let m = Hashtbl.create 64 in
      List.iter
        (fun (k, v) ->
          Cceh.put t c (key k) v;
          Hashtbl.replace m (key k) v)
        ops;
      Hashtbl.fold (fun k v acc -> acc && Cceh.get t c k = Some v) m true)

(* ----------------------------------- Vlog -------------------------------- *)

let test_vlog_append_read () =
  let t = Vlog.create (dev ()) in
  let c = Clock.create () in
  let l0 = Vlog.append t c 7L ~vlen:100 in
  let l1 = Vlog.append t c 8L ~vlen:8 in
  Alcotest.(check int) "locations sequential" (l0 + 1) l1;
  Alcotest.(check bool) "read" true (Vlog.read t c l0 = Ok (7L, 100));
  Alcotest.(check bool) "verify ok" true (Vlog.verify t c l0 7L);
  Alcotest.(check bool) "verify mismatch" false (Vlog.verify t c l0 9L)

let test_vlog_batching () =
  let t = Vlog.create ~batch_bytes:4096 (dev ()) in
  let c = Clock.create () in
  (* entries of 24 B: the 4 KB batch holds 170 of them *)
  for _ = 1 to 100 do
    ignore (Vlog.append t c 1L ~vlen:8)
  done;
  Alcotest.(check int) "nothing persisted yet" 0 (Vlog.persisted t);
  for _ = 1 to 100 do
    ignore (Vlog.append t c 1L ~vlen:8)
  done;
  Alcotest.(check bool) "first batch persisted" true (Vlog.persisted t >= 170);
  Vlog.flush t c;
  Alcotest.(check int) "flush persists all" 200 (Vlog.persisted t)

let test_vlog_crash_drops_tail () =
  let t = Vlog.create (dev ()) in
  let c = Clock.create () in
  for i = 0 to 99 do
    ignore (Vlog.append t c (key i) ~vlen:8)
  done;
  Vlog.flush t c;
  for i = 100 to 120 do
    ignore (Vlog.append t c (key i) ~vlen:8)
  done;
  Vlog.crash t;
  Alcotest.(check int) "tail dropped" 100 (Vlog.length t);
  Alcotest.(check bool) "persisted data intact" true
    (Int64.equal (Vlog.key_at t 99) (key 99))

let test_vlog_fenced () =
  let t = Vlog.create ~fenced:true (dev ()) in
  let c = Clock.create () in
  ignore (Vlog.append t c 1L ~vlen:8);
  Alcotest.(check int) "immediately durable" 1 (Vlog.persisted t);
  let st = Device.stats (Vlog.device t) in
  Alcotest.(check bool) "media-amplified" true
    (st.Pmem_sim.Stats.media_write_bytes >= 256.0)

let test_vlog_tombstone_entry () =
  let t = Vlog.create (dev ()) in
  let c = Clock.create () in
  let l = Vlog.append t c 5L ~vlen:(-1) in
  Alcotest.(check int) "header-only size" 16 (Vlog.entry_bytes ~vlen:(-1));
  Alcotest.(check int) "vlen preserved" (-1) (Vlog.vlen_at t l)

let test_vlog_iter_range () =
  let t = Vlog.create (dev ()) in
  let c = Clock.create () in
  for i = 0 to 49 do
    ignore (Vlog.append t c (key i) ~vlen:8)
  done;
  Vlog.flush t c;
  let seen = ref [] in
  Vlog.iter_range t c ~lo:10 ~hi:20 (fun loc k vlen ->
      seen := (loc, k, vlen) :: !seen);
  Alcotest.(check int) "10 entries" 10 (List.length !seen);
  (match List.rev !seen with
  | (loc0, k0, v0) :: _ ->
    Alcotest.(check int) "first loc" 10 loc0;
    Alcotest.(check bool) "first key" true (Int64.equal k0 (key 10));
    Alcotest.(check int) "vlen" 8 v0
  | [] -> Alcotest.fail "no entries");
  (* unpersisted entries are not scanned *)
  ignore (Vlog.append t c (key 50) ~vlen:8);
  let n = ref 0 in
  Vlog.iter_range t c ~lo:50 ~hi:60 (fun _ _ _ -> incr n);
  Alcotest.(check int) "unpersisted excluded" 0 !n

let test_vlog_bytes_upto () =
  let t = Vlog.create (dev ()) in
  let c = Clock.create () in
  ignore (Vlog.append t c 1L ~vlen:8);
  ignore (Vlog.append t c 2L ~vlen:100);
  Alcotest.(check int) "zero" 0 (Vlog.bytes_upto t 0);
  Alcotest.(check int) "one" 24 (Vlog.bytes_upto t 1);
  Alcotest.(check int) "two" (24 + 116) (Vlog.bytes_upto t 2)

let test_vlog_oob () =
  let t = Vlog.create (dev ()) in
  let c = Clock.create () in
  Alcotest.(check bool) "read oob raises" true
    (try
       ignore (Vlog.read t c 0);
       false
     with Invalid_argument _ -> true)

let prop_vlog_roundtrip =
  QCheck.Test.make ~name:"vlog roundtrips entries" ~count:100
    QCheck.(list_of_size Gen.(1 -- 100) (int_range 0 4096))
    (fun vlens ->
      let t = Vlog.create (dev ()) in
      let c = Clock.create () in
      let locs =
        List.mapi
          (fun i vlen -> (Vlog.append t c (key i) ~vlen, i, vlen))
          vlens
      in
      List.for_all
        (fun (loc, i, vlen) -> Vlog.read t c loc = Ok (key i, vlen))
        locs)


(* ----------------------------------- Merge ------------------------------- *)

let test_merge_newest_wins () =
  let open Kv_common.Merge in
  let merged =
    newest_first [ of_list [ (1L, 10); (2L, 20) ]; of_list [ (1L, 5); (3L, 30) ] ]
  in
  let sorted = List.sort compare merged in
  Alcotest.(check bool) "newest binding per key" true
    (sorted = [ (1L, 10); (2L, 20); (3L, 30) ])

let test_merge_tombstones () =
  let open Kv_common.Merge in
  let sources =
    [ of_list [ (1L, Types.tombstone) ]; of_list [ (1L, 5); (2L, 7) ] ]
  in
  let kept = List.sort compare (newest_first sources) in
  Alcotest.(check bool) "tombstone kept by default" true
    (kept = [ (1L, Types.tombstone); (2L, 7) ]);
  let dropped = List.sort compare (newest_first ~drop_tombstones:true sources) in
  Alcotest.(check bool) "tombstone masks and drops at bottom" true
    (dropped = [ (2L, 7) ])

let test_merge_on_entry_counts () =
  let open Kv_common.Merge in
  let n = ref 0 in
  let _ =
    newest_first
      ~on_entry:(fun () -> incr n)
      [ of_list [ (1L, 1); (2L, 2) ]; of_list [ (1L, 0) ] ]
  in
  Alcotest.(check int) "visited every entry" 3 !n

let prop_merge_matches_model =
  QCheck.Test.make ~name:"merge equals first-binding model" ~count:200
    QCheck.(small_list (small_list (pair (int_range 1 20) small_nat)))
    (fun raw ->
      let sources =
        List.map
          (fun l -> List.map (fun (k, v) -> (key k, v)) l)
          raw
      in
      let merged =
        Kv_common.Merge.newest_first
          (List.map Kv_common.Merge.of_list sources)
      in
      let model = Hashtbl.create 16 in
      List.iter
        (List.iter (fun (k, v) ->
             if not (Hashtbl.mem model k) then Hashtbl.add model k v))
        sources;
      List.length merged = Hashtbl.length model
      && List.for_all (fun (k, v) -> Hashtbl.find model k = v) merged)

let () =
  Alcotest.run "kv_common"
    [ ( "hash",
        [ Alcotest.test_case "mix64 spreads" `Quick test_mix64_spreads;
          Alcotest.test_case "to_int nonneg edge" `Quick test_to_int_nonneg;
          Alcotest.test_case "shard balance" `Quick test_shard_balance;
          QCheck_alcotest.to_alcotest prop_to_int_nonneg;
          QCheck_alcotest.to_alcotest prop_slot_in_range;
          QCheck_alcotest.to_alcotest prop_shard_in_range ] );
      ( "bloom",
        [ Alcotest.test_case "no false negatives" `Quick
            test_bloom_no_false_negative;
          Alcotest.test_case "false-positive rate" `Quick test_bloom_fp_rate;
          Alcotest.test_case "charges time" `Quick test_bloom_charges_time;
          QCheck_alcotest.to_alcotest prop_bloom_never_false_negative ] );
      ( "flat_table",
        [ Alcotest.test_case "put/get/update" `Quick test_flat_put_get;
          Alcotest.test_case "full behaviour" `Quick test_flat_full;
          Alcotest.test_case "clear and iter" `Quick test_flat_clear_iter;
          Alcotest.test_case "tombstone values" `Quick
            test_flat_tombstone_values;
          QCheck_alcotest.to_alcotest prop_flat_vs_model ] );
      ( "linear_table",
        [ Alcotest.test_case "build and get" `Quick test_lt_build_get;
          Alcotest.test_case "later binding wins" `Quick
            test_lt_later_binding_wins;
          Alcotest.test_case "overfull rejected" `Quick
            test_lt_overfull_rejected;
          Alcotest.test_case "iter and silent access" `Quick
            test_lt_iter_and_silent;
          Alcotest.test_case "persisted at build" `Quick
            test_lt_persists_to_device;
          Alcotest.test_case "media accounting" `Quick
            test_lt_media_accounting;
          Alcotest.test_case "tags" `Quick test_lt_tag;
          QCheck_alcotest.to_alcotest prop_lt_vs_model ] );
      ( "sorted-run",
        [ Alcotest.test_case "build_sorted get and iter" `Quick
            test_lt_sorted_build_get;
          Alcotest.test_case "cursor streams the suffix" `Quick
            test_lt_sorted_cursor;
          Alcotest.test_case "cursor reads lazily" `Quick
            test_lt_sorted_cursor_lazy ] );
      ( "scan-algebra",
        [ Alcotest.test_case "merge: newest stream wins ties" `Quick
            test_scan_merge_newest_wins;
          Alcotest.test_case "tombstones mask then drop" `Quick
            test_scan_tombstone_masks_then_drops;
          Alcotest.test_case "error is fail-stop" `Quick
            test_scan_error_fail_stop;
          Alcotest.test_case "of_iter sorts, filters, limits" `Quick
            test_scan_take_and_of_iter ] );
      ( "robinhood",
        [ Alcotest.test_case "basics" `Quick test_rh_basic;
          Alcotest.test_case "grows" `Quick test_rh_grows;
          Alcotest.test_case "rehash latency spike" `Quick
            test_rh_rehash_latency_spike;
          QCheck_alcotest.to_alcotest prop_rh_vs_model ] );
      ( "skiplist",
        [ Alcotest.test_case "sorted iteration" `Quick
            test_sl_sorted_iteration;
          Alcotest.test_case "update in place" `Quick test_sl_update_in_place;
          Alcotest.test_case "pmem traffic" `Quick test_sl_pmem_traffic;
          Alcotest.test_case "clear" `Quick test_sl_clear;
          QCheck_alcotest.to_alcotest prop_sl_vs_model ] );
      ( "cceh",
        [ Alcotest.test_case "basics" `Quick test_cceh_basic;
          Alcotest.test_case "splits preserve data" `Quick test_cceh_splits;
          Alcotest.test_case "small-write amplification" `Quick
            test_cceh_small_write_amplification;
          Alcotest.test_case "cheap recovery" `Quick test_cceh_recover_cheap;
          QCheck_alcotest.to_alcotest prop_cceh_vs_model ] );
      ( "merge",
        [ Alcotest.test_case "newest wins" `Quick test_merge_newest_wins;
          Alcotest.test_case "tombstone handling" `Quick test_merge_tombstones;
          Alcotest.test_case "on_entry counts" `Quick
            test_merge_on_entry_counts;
          QCheck_alcotest.to_alcotest prop_merge_matches_model ] );
      ( "vlog",
        [ Alcotest.test_case "append/read/verify" `Quick
            test_vlog_append_read;
          Alcotest.test_case "batching" `Quick test_vlog_batching;
          Alcotest.test_case "crash drops open batch" `Quick
            test_vlog_crash_drops_tail;
          Alcotest.test_case "fenced mode" `Quick test_vlog_fenced;
          Alcotest.test_case "tombstone entries" `Quick
            test_vlog_tombstone_entry;
          Alcotest.test_case "iter_range" `Quick test_vlog_iter_range;
          Alcotest.test_case "bytes_upto" `Quick test_vlog_bytes_upto;
          Alcotest.test_case "out of bounds" `Quick test_vlog_oob;
          QCheck_alcotest.to_alcotest prop_vlog_roundtrip ] ) ]
