module Clock = Pmem_sim.Clock
module CM = Pmem_sim.Cost_model
module Device = Pmem_sim.Device
module Stats = Pmem_sim.Stats
module Crc32c = Pmem_sim.Crc32c

(* --------------------------------- Clock -------------------------------- *)

let test_clock_basics () =
  let c = Clock.create () in
  Alcotest.(check (float 0.0)) "starts at 0" 0.0 (Clock.now c);
  Clock.advance c 100.0;
  Alcotest.(check (float 0.0)) "advanced" 100.0 (Clock.now c);
  let stall = Clock.wait_until c 250.0 in
  Alcotest.(check (float 0.0)) "stall" 150.0 stall;
  Alcotest.(check (float 0.0)) "at deadline" 250.0 (Clock.now c);
  let no_stall = Clock.wait_until c 10.0 in
  Alcotest.(check (float 0.0)) "past deadline: no stall" 0.0 no_stall;
  Alcotest.(check (float 0.0)) "clock unchanged" 250.0 (Clock.now c)

let test_clock_copy () =
  let a = Clock.create ~at:42.0 () in
  let b = Clock.copy a in
  Clock.advance b 8.0;
  Alcotest.(check (float 0.0)) "original unchanged" 42.0 (Clock.now a);
  Alcotest.(check (float 0.0)) "copy advanced" 50.0 (Clock.now b)

(* ------------------------------- Cost model ----------------------------- *)

let test_aligned_span () =
  let span = CM.aligned_span ~unit:256 in
  Alcotest.(check int) "zero len" 0 (span ~off:0 ~len:0);
  Alcotest.(check int) "sub-unit aligned" 256 (span ~off:0 ~len:8);
  Alcotest.(check int) "exact unit" 256 (span ~off:0 ~len:256);
  Alcotest.(check int) "unaligned small straddles" 512 (span ~off:250 ~len:16);
  Alcotest.(check int) "aligned large" 1024 (span ~off:256 ~len:1024);
  Alcotest.(check int) "unaligned large" 1280 (span ~off:100 ~len:1024)

let test_bw_scaling () =
  (* rises with threads up to ~4, write side declines at high counts *)
  Alcotest.(check bool) "write 1 < 4" true
    (CM.write_bw_scale ~threads:1 < CM.write_bw_scale ~threads:4);
  Alcotest.(check bool) "write 16 < 4 (iMC contention)" true
    (CM.write_bw_scale ~threads:16 < CM.write_bw_scale ~threads:4);
  Alcotest.(check bool) "read 1 < 8" true
    (CM.read_bw_scale ~threads:1 < CM.read_bw_scale ~threads:8);
  Alcotest.(check bool) "clamped at 0 threads" true
    (CM.write_bw_scale ~threads:0 = CM.write_bw_scale ~threads:1);
  Alcotest.(check bool) "beyond table" true
    (CM.write_bw_scale ~threads:64 = CM.write_bw_scale ~threads:32)

let test_profiles () =
  Alcotest.(check int) "optane unit" 256 CM.optane.CM.write_unit;
  Alcotest.(check bool) "optane ~3x dram read latency" true
    (CM.optane.CM.read_latency_ns > 2.0 *. CM.dram.CM.read_latency_ns
    && CM.optane.CM.read_latency_ns < 5.0 *. CM.dram.CM.read_latency_ns);
  Alcotest.(check bool) "ssd read latencies dominate optane" true
    (CM.sata_ssd.CM.read_latency_ns > 100.0 *. CM.optane.CM.read_latency_ns)

(* --------------------------------- Stats -------------------------------- *)

let test_stats_diff () =
  let a = Stats.create () in
  a.Stats.media_write_bytes <- 100.0;
  a.Stats.read_ops <- 5;
  let b = Stats.copy a in
  b.Stats.media_write_bytes <- 350.0;
  b.Stats.read_ops <- 9;
  let d = Stats.diff ~after:b ~before:a in
  Alcotest.(check (float 0.0)) "bytes delta" 250.0 d.Stats.media_write_bytes;
  Alcotest.(check int) "ops delta" 4 d.Stats.read_ops

let test_stats_wa () =
  let s = Stats.create () in
  Alcotest.(check (float 0.0)) "no writes" 0.0 (Stats.write_amplification s);
  s.Stats.user_write_bytes <- 16.0;
  s.Stats.media_write_bytes <- 256.0;
  Alcotest.(check (float 0.0)) "16x" 16.0 (Stats.write_amplification s)

(* --------------------------------- Device ------------------------------- *)

let mk () = Device.create ~capacity:4096 CM.optane

let test_alloc_alignment () =
  let d = mk () in
  let a = Device.alloc d 100 in
  let b = Device.alloc d 100 in
  Alcotest.(check int) "first aligned" 0 (a mod 256);
  Alcotest.(check int) "second aligned" 0 (b mod 256);
  Alcotest.(check bool) "disjoint" true (b >= a + 100);
  Alcotest.(check (float 0.0)) "live bytes" 200.0 (Device.used_bytes d);
  Device.dealloc d ~off:a ~len:100;
  Alcotest.(check (float 0.0)) "after dealloc" 100.0 (Device.used_bytes d)

let test_alloc_grows () =
  let d = Device.create ~capacity:512 CM.optane in
  let off = Device.alloc d 1_000_000 in
  let c = Clock.create () in
  Device.write_u64 d c ~off:(off + 999_000) 42L;
  Alcotest.(check int64) "read back" 42L
    (Device.peek_u64 d ~off:(off + 999_000))

let test_write_read_roundtrip () =
  let d = mk () in
  let c = Clock.create () in
  let off = Device.alloc d 64 in
  Device.write_bytes d c ~off (Bytes.of_string "hello");
  let back = Device.read_bytes d c ~off ~len:5 ~hint:Device.Random in
  Alcotest.(check string) "roundtrip" "hello" (Bytes.to_string back);
  Alcotest.(check bool) "time advanced" true (Clock.now c > 0.0)

let test_persist_then_crash () =
  let d = mk () in
  let c = Clock.create () in
  let off = Device.alloc d 64 in
  Device.write_u64 d c ~off 1L;
  Device.persist d c ~off ~len:8;
  Device.write_u64 d c ~off:(off + 8) 2L; (* never persisted *)
  Device.crash d;
  Alcotest.(check int64) "persisted survives" 1L (Device.peek_u64 d ~off);
  Alcotest.(check int64) "unpersisted reverted" 0L
    (Device.peek_u64 d ~off:(off + 8));
  Alcotest.(check bool) "pending cleared" true (Device.pending_ranges d = [])

let test_crash_overlapping_writes () =
  let d = mk () in
  let c = Clock.create () in
  let off = Device.alloc d 64 in
  Device.write_u64 d c ~off 1L;
  Device.persist d c ~off ~len:8;
  Device.write_u64 d c ~off 2L;
  Device.write_u64 d c ~off 3L;
  (* two unpersisted overwrites of a persisted value: crash must restore
     the persisted state, not an intermediate one *)
  Device.crash d;
  Alcotest.(check int64) "restored to persisted" 1L (Device.peek_u64 d ~off)

let test_media_accounting_small_write () =
  let d = mk () in
  let c = Clock.create () in
  let off = Device.alloc d 256 in
  Device.write_u64 d c ~off 9L;
  Device.persist d c ~off ~len:8;
  let st = Device.stats d in
  Alcotest.(check (float 0.0)) "user bytes" 8.0 st.Stats.user_write_bytes;
  Alcotest.(check (float 0.0)) "one full unit" 256.0
    st.Stats.media_write_bytes;
  Alcotest.(check bool) "RMW read charged" true (st.Stats.rmw_read_bytes > 0.0)

let test_media_accounting_aligned_write () =
  let d = mk () in
  let c = Clock.create () in
  let off = Device.alloc d 1024 in
  Device.write_bytes d c ~off (Bytes.make 1024 'x');
  Device.persist d c ~off ~len:1024;
  let st = Device.stats d in
  Alcotest.(check (float 0.0)) "no amplification" 1024.0
    st.Stats.media_write_bytes;
  Alcotest.(check (float 0.0)) "no RMW" 0.0 st.Stats.rmw_read_bytes

let test_charge_append_no_amp () =
  let d = mk () in
  let c = Clock.create () in
  Device.charge_append d c ~len:4096;
  let st = Device.stats d in
  Alcotest.(check (float 0.0)) "media = user" st.Stats.user_write_bytes
    st.Stats.media_write_bytes

let test_charge_write_random_amp () =
  let d = mk () in
  let c = Clock.create () in
  Device.charge_write_random d c ~len:16;
  let st = Device.stats d in
  Alcotest.(check bool) "amplified" true
    (st.Stats.media_write_bytes >= 256.0)

let test_write_backpressure () =
  (* sustained writes throttle to the media rate: the WPQ caps backlog *)
  let d = mk () in
  let c = Clock.create () in
  let n = 2_000 in
  for _ = 1 to n do
    Device.charge_append d c ~len:4096
  done;
  let wall = Clock.now c in
  let bytes = float_of_int (n * 4096) in
  let bw = bytes /. wall in
  (* effective bandwidth within 2x of the configured single-thread rate *)
  let expected =
    CM.optane.CM.write_bw_gbps *. CM.write_bw_scale ~threads:1
  in
  Alcotest.(check bool)
    (Printf.sprintf "throttled to media rate (got %.2f GB/s)" bw)
    true
    (bw < expected *. 1.5 && bw > expected /. 2.0)

let test_read_rate_cap () =
  (* aggregate random reads are bounded by the occupancy-derived IOPS cap *)
  let d = mk () in
  Device.set_active_threads d 16;
  let clocks = Array.init 16 (fun _ -> Clock.create ()) in
  let n = 50_000 in
  for _ = 1 to n do
    let bi = ref 0 in
    Array.iteri
      (fun i c -> if Clock.now c < Clock.now clocks.(!bi) then bi := i)
      clocks;
    Device.charge_read_bytes d clocks.(!bi) ~len:8 ~hint:Device.Random
  done;
  let wall = Array.fold_left (fun a c -> Float.max a (Clock.now c)) 0.0 clocks in
  let rate_mops = float_of_int n /. wall *. 1000.0 in
  let cap = 1000.0 /. CM.optane.CM.random_read_occupancy_ns in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.1f <= cap %.1f" rate_mops cap)
    true
    (rate_mops <= cap *. 1.05)

let test_quiesce_at () =
  let d = mk () in
  let c = Clock.create () in
  Device.charge_append d c ~len:1_000_000;
  Alcotest.(check bool) "backlog visible" true
    (Device.quiesce_at d > 0.0)

let test_adjacent_cheaper () =
  let d = mk () in
  let off = Device.alloc d 64 in
  let c1 = Clock.create () in
  ignore (Device.read_u64 d c1 ~off ~hint:Device.Random);
  let c2 = Clock.create () in
  ignore (Device.read_u64 d c2 ~off ~hint:Device.Adjacent);
  Alcotest.(check bool) "adjacent < random" true
    (Clock.now c2 < Clock.now c1)

let prop_media_at_least_user =
  QCheck.Test.make ~name:"media bytes >= user bytes for isolated persists"
    ~count:300
    QCheck.(pair (int_bound 4000) (int_bound 5000))
    (fun (off, len) ->
      let len = len + 1 in
      let d = Device.create ~capacity:16384 CM.optane in
      let c = Clock.create () in
      Device.charge_write_at d c ~off ~len;
      let st = Device.stats d in
      st.Stats.media_write_bytes >= st.Stats.user_write_bytes
      && st.Stats.media_write_bytes <= st.Stats.user_write_bytes +. 512.0
      && int_of_float st.Stats.media_write_bytes mod 256 = 0)

let prop_crash_restores_unpersisted =
  QCheck.Test.make ~name:"crash restores exactly unpersisted writes"
    ~count:100
    QCheck.(small_list (pair (int_bound 30) (int_bound 255)))
    (fun writes ->
      let d = Device.create ~capacity:4096 CM.optane in
      let c = Clock.create () in
      let off = Device.alloc d 512 in
      (* persist even-indexed writes, leave odd ones volatile *)
      let expected = Array.make 32 0 in
      List.iteri
        (fun i (slot, v) ->
          let o = off + (slot * 8) in
          Device.write_u64 d c ~off:o (Int64.of_int v);
          if i mod 2 = 0 then begin
            Device.persist d c ~off:o ~len:8;
            expected.(slot) <- v
          end
          else
            (* a later persisted write to the same slot wins; model it *)
            ())
        writes;
      (* replay the model to compute the final durable state precisely *)
      let durable = Array.make 32 0 in
      List.iteri
        (fun i (slot, v) -> if i mod 2 = 0 then durable.(slot) <- v)
        writes;
      ignore expected;
      Device.crash d;
      let ok = ref true in
      (* volatile overwrites of never-persisted slots must be zero; persisted
         slots must hold their last persisted value, except where a volatile
         write landed after the persist (undo restores the persisted value) *)
      List.iteri
        (fun _ (slot, _) ->
          let v = Int64.to_int (Device.peek_u64 d ~off:(off + (slot * 8))) in
          if v <> durable.(slot) then ok := false)
        writes;
      !ok)


let test_write_bytes_empty_noop () =
  let d = mk () in
  let c = Clock.create () in
  let off = Device.alloc d 64 in
  Device.write_bytes d c ~off (Bytes.create 0);
  Alcotest.(check (float 0.0)) "no time charged" 0.0 (Clock.now c);
  Alcotest.(check int) "no pending" 0 (List.length (Device.pending_ranges d))

let test_bulk_read_charges_bandwidth () =
  let d = mk () in
  let off = Device.alloc d (1 lsl 20) in
  let c1 = Clock.create () in
  ignore (Device.read_bytes d c1 ~off ~len:(1 lsl 20) ~hint:Device.Bulk);
  (* 1 MiB at 12 GB/s single-thread-scaled: tens of microseconds *)
  Alcotest.(check bool) "bulk read takes real time" true
    (Clock.now c1 > 50_000.0)

let test_threads_scale_write_bandwidth () =
  let run threads =
    let d = mk () in
    Device.set_active_threads d threads;
    let c = Clock.create () in
    for _ = 1 to 500 do
      Device.charge_append d c ~len:65536
    done;
    Clock.now c
  in
  Alcotest.(check bool) "4 threads drain the same bytes faster" true
    (run 4 < run 1)

let test_ssd_profile_unit () =
  let d = Device.create CM.sata_ssd in
  let c = Clock.create () in
  Device.charge_write_random d c ~len:100;
  (* SSD write unit is a 4 KB page *)
  Alcotest.(check bool) "page-sized media write" true
    ((Device.stats d).Stats.media_write_bytes >= 4096.0)

let test_quiesce_monotone () =
  let d = mk () in
  let c = Clock.create () in
  let q0 = Device.quiesce_at d in
  Device.charge_append d c ~len:100_000;
  let q1 = Device.quiesce_at d in
  Device.charge_append d c ~len:100_000;
  let q2 = Device.quiesce_at d in
  Alcotest.(check bool) "monotone" true (q0 <= q1 && q1 <= q2)

let test_write_flood_bounds_read_wait () =
  (* reads under a write flood spike, but only by a bounded amount (the
     write-pending-queue depth), as on the real device *)
  let d = mk () in
  let c = Clock.create () in
  for _ = 1 to 200 do
    Device.charge_append d c ~len:65536
  done;
  let r = Clock.create ~at:(Clock.now c) () in
  Device.charge_read_bytes d r ~len:8 ~hint:Device.Random;
  let lat = Clock.now r -. Clock.now c in
  Alcotest.(check bool)
    (Printf.sprintf "read latency %.0fns elevated but bounded" lat)
    true
    (lat > CM.optane.CM.read_latency_ns && lat < 20_000.0)

(* -------------------------------- CRC32C -------------------------------- *)

(* Bit-at-a-time CRC32C straight from the definition (reflected polynomial
   0x82F63B78): the reference the table-driven kernel must agree with. *)
let ref_crc32c crc buf ~off ~len =
  let c = ref (Int32.to_int crc land 0xFFFF_FFFF lxor 0xFFFF_FFFF) in
  for i = off to off + len - 1 do
    c := !c lxor Char.code (Bytes.get buf i);
    for _ = 1 to 8 do
      c := if !c land 1 = 1 then (!c lsr 1) lxor 0x82F63B78 else !c lsr 1
    done
  done;
  Int32.of_int (!c lxor 0xFFFF_FFFF)

let ref_int64 crc v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  ref_crc32c crc b ~off:0 ~len:8

let test_crc_check_value () =
  (* RFC 3720, B.4: the CRC32C check value *)
  Alcotest.(check int32) "123456789" 0xE3069283l
    (Crc32c.bytes (Bytes.of_string "123456789"));
  Alcotest.(check int32) "empty" Crc32c.empty (Crc32c.bytes Bytes.empty)

let test_crc_differential () =
  let rng = Random.State.make [| 3720 |] in
  for _ = 1 to 2000 do
    let n = Random.State.int rng 600 in
    let buf = Bytes.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
    let off = Random.State.int rng (n + 1) in
    let len = Random.State.int rng (n - off + 1) in
    let seed = Random.State.bits32 rng in
    let msg = Printf.sprintf "n=%d off=%d len=%d seed=%ld" n off len seed in
    Alcotest.(check int32) msg (ref_crc32c seed buf ~off ~len)
      (Crc32c.update seed buf ~off ~len);
    Alcotest.(check int32) ("bytes " ^ msg) (ref_crc32c seed buf ~off:0 ~len:n)
      (Crc32c.bytes ~crc:seed buf);
    let v = Random.State.int64 rng Int64.max_int in
    let v = if Random.State.bool rng then Int64.neg v else v in
    Alcotest.(check int32) (Printf.sprintf "int64 %Ld" v) (ref_int64 seed v)
      (Crc32c.int64 seed v);
    let i = Int64.to_int v in
    Alcotest.(check int32) (Printf.sprintf "int %d" i)
      (ref_int64 seed (Int64.of_int i)) (Crc32c.int seed i)
  done;
  List.iter
    (fun v ->
      Alcotest.(check int32) (Printf.sprintf "int64 %Ld" v)
        (ref_int64 0x1234l v) (Crc32c.int64 0x1234l v))
    [ 0L; -1L; Int64.min_int; Int64.max_int ];
  List.iter
    (fun i ->
      Alcotest.(check int32) (Printf.sprintf "int %d" i)
        (ref_int64 0x1234l (Int64.of_int i)) (Crc32c.int 0x1234l i))
    [ 0; -1; min_int; max_int ];
  Alcotest.check_raises "range past the end" (Invalid_argument "Crc32c.update")
    (fun () -> ignore (Crc32c.update Crc32c.empty (Bytes.create 8) ~off:4 ~len:5))

(* The kernel allocates nothing.  Under dune's default (dev) profile
   modules are compiled [-opaque], so the int32 result is still boxed at
   the call boundary; a 256 B update must cost exactly what an empty one
   does, i.e. that box and no more. *)
let test_crc_allocation_free () =
  let buf = Bytes.init 256 (fun i -> Char.chr (i * 37 land 0xFF)) in
  let words len =
    let acc = ref 0 in
    let before = Gc.minor_words () in
    for _ = 1 to 10_000 do
      acc := !acc lxor Int32.to_int (Crc32c.update Crc32c.empty buf ~off:0 ~len)
    done;
    let after = Gc.minor_words () in
    ignore (Sys.opaque_identity !acc);
    after -. before
  in
  let empty = words 0 in
  Alcotest.(check (float 0.)) "256 B updates allocate no more than empty ones"
    empty (words 256);
  Alcotest.(check bool) "at most the boxed result" true (empty <= 30_000.)

let test_peek_crc32c () =
  let d = mk () in
  let c = Clock.create () in
  let off = Device.alloc d 512 in
  let src = Bytes.init 512 (fun i -> Char.chr (i land 0xFF)) in
  Device.write_bytes d c ~off src;
  Alcotest.(check int32) "in place = copy"
    (Crc32c.update Crc32c.empty src ~off:100 ~len:300)
    (Device.peek_crc32c d ~off:(off + 100) ~len:300)

let () =
  Alcotest.run "pmem_sim"
    [ ( "clock",
        [ Alcotest.test_case "basics" `Quick test_clock_basics;
          Alcotest.test_case "copy" `Quick test_clock_copy ] );
      ( "cost_model",
        [ Alcotest.test_case "aligned span" `Quick test_aligned_span;
          Alcotest.test_case "bandwidth scaling" `Quick test_bw_scaling;
          Alcotest.test_case "profiles" `Quick test_profiles ] );
      ( "stats",
        [ Alcotest.test_case "diff" `Quick test_stats_diff;
          Alcotest.test_case "write amplification" `Quick test_stats_wa ] );
      ( "crc32c",
        [ Alcotest.test_case "RFC 3720 check value" `Quick test_crc_check_value;
          Alcotest.test_case "matches bit-at-a-time reference" `Quick
            test_crc_differential;
          Alcotest.test_case "update allocates nothing" `Quick
            test_crc_allocation_free;
          Alcotest.test_case "device checksum in place" `Quick test_peek_crc32c
        ] );
      ( "device",
        [ Alcotest.test_case "alloc alignment" `Quick test_alloc_alignment;
          Alcotest.test_case "alloc grows" `Quick test_alloc_grows;
          Alcotest.test_case "write/read roundtrip" `Quick
            test_write_read_roundtrip;
          Alcotest.test_case "persist then crash" `Quick
            test_persist_then_crash;
          Alcotest.test_case "crash with overlapping writes" `Quick
            test_crash_overlapping_writes;
          Alcotest.test_case "media accounting: small write" `Quick
            test_media_accounting_small_write;
          Alcotest.test_case "media accounting: aligned write" `Quick
            test_media_accounting_aligned_write;
          Alcotest.test_case "append has no amplification" `Quick
            test_charge_append_no_amp;
          Alcotest.test_case "random small write amplified" `Quick
            test_charge_write_random_amp;
          Alcotest.test_case "write back-pressure" `Quick
            test_write_backpressure;
          Alcotest.test_case "random-read rate cap" `Quick test_read_rate_cap;
          Alcotest.test_case "quiesce_at" `Quick test_quiesce_at;
          Alcotest.test_case "adjacent reads cheaper" `Quick
            test_adjacent_cheaper;
          Alcotest.test_case "empty write is a no-op" `Quick
            test_write_bytes_empty_noop;
          Alcotest.test_case "bulk read bandwidth" `Quick
            test_bulk_read_charges_bandwidth;
          Alcotest.test_case "thread scaling" `Quick
            test_threads_scale_write_bandwidth;
          Alcotest.test_case "ssd write unit" `Quick test_ssd_profile_unit;
          Alcotest.test_case "quiesce monotone" `Quick test_quiesce_monotone;
          Alcotest.test_case "bounded read wait under write flood" `Quick
            test_write_flood_bounds_read_wait;
          QCheck_alcotest.to_alcotest prop_media_at_least_user;
          QCheck_alcotest.to_alcotest prop_crash_restores_unpersisted ] ) ]
