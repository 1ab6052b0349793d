module Clock = Pmem_sim.Clock
module Device = Pmem_sim.Device
module Cost_model = Pmem_sim.Cost_model
module Vlog = Kv_common.Vlog
module Fault_point = Kv_common.Fault_point
module Store_intf = Kv_common.Store_intf
module Config = Chameleondb.Config
module Checker = Fault.Checker
module Sweep = Fault.Sweep

let unit = Cost_model.optane.Cost_model.write_unit

(* ------------------------- Torn writes: device level ---------------------- *)

let test_device_torn_crash () =
  let dev = Device.create Cost_model.optane in
  let raw = Device.alloc dev 1024 in
  (* operate on a unit-aligned 512 B window: exactly two write units *)
  let off = (raw + unit - 1) / unit * unit in
  let clock = Clock.create () in
  Device.write_bytes dev clock ~off (Bytes.make 512 'a');
  Device.persist dev clock ~off ~len:512;
  Device.write_bytes dev clock ~off (Bytes.make 512 'b');
  (* no persist: the 'b' write is in flight; keep only the first unit *)
  Device.set_tear dev (Some (fun x -> x = off));
  Device.crash dev;
  Device.set_tear dev None;
  let b = Device.peek_bytes dev ~off ~len:512 in
  Alcotest.(check char) "kept unit survives" 'b' (Bytes.get b 0);
  Alcotest.(check char) "kept unit survives (end)" 'b' (Bytes.get b (unit - 1));
  Alcotest.(check char) "torn unit reverts" 'a' (Bytes.get b unit);
  Alcotest.(check char) "torn unit reverts (end)" 'a' (Bytes.get b 511)

(* -------------------------- Torn writes: vlog level ----------------------- *)

let torn_vlog keep =
  let dev = Device.create Cost_model.optane in
  let v = Vlog.create dev in
  let clock = Clock.create () in
  for i = 0 to 19 do
    ignore (Vlog.append v clock (Int64.of_int i) ~vlen:8)
  done;
  Vlog.flush v clock;
  for i = 20 to 59 do
    ignore (Vlog.append v clock (Int64.of_int i) ~vlen:8)
  done;
  let base = Vlog.bytes_upto v 20 in
  Device.set_tear dev (Some (keep ~base));
  Vlog.crash v;
  Device.set_tear dev None;
  v

let test_vlog_torn_batch () =
  (* all units of the unpersisted batch survive: the whole batch does *)
  let v = torn_vlog (fun ~base:_ _ -> true) in
  Alcotest.(check int) "all survive" 60 (Vlog.persisted v);
  (* no unit survives: the log truncates at the flush watermark *)
  let v = torn_vlog (fun ~base:_ _ -> false) in
  Alcotest.(check int) "none survive" 20 (Vlog.persisted v);
  (* only the first two units past the watermark survive: the surviving
     prefix is the longest run of whole 24 B entries inside 512 B *)
  let v = torn_vlog (fun ~base x -> x < base + (2 * unit)) in
  Alcotest.(check int) "prefix of whole entries" (20 + ((2 * unit) / 24))
    (Vlog.persisted v);
  for i = 0 to Vlog.persisted v - 1 do
    Alcotest.(check int64) "surviving key readable" (Int64.of_int i)
      (Vlog.key_at v i)
  done

(* ------------------------------ Checker cases ----------------------------- *)

let tiny = Harness.Stores.quick

let six_stores () =
  List.map
    (fun spec -> (spec.Harness.Stores.name, spec.Harness.Stores.make))
    (Harness.Stores.all tiny)

let test_checker_clean_run () =
  List.iter
    (fun (name, make) ->
      let o = Checker.run_case ~make ~ops:2_000 ~universe:200 ~seed:7 () in
      Alcotest.(check bool) (name ^ ": no crash") false o.Checker.crashed;
      Alcotest.(check (list string)) (name ^ ": clean") [] o.Checker.violations)
    (six_stores ())

let test_checker_crash_all_stores () =
  List.iter
    (fun (name, make) ->
      (* stores differ wildly in persist-event volume (Dram-Hash only
         persists log batches), so pick a mid-run crash point from the
         profiled counts instead of a fixed offset *)
      let counts = Checker.profile ~make ~ops:3_000 ~universe:300 ~seed:11 () in
      let total = List.fold_left (fun acc (_, n) -> acc + n) 0 counts in
      Alcotest.(check bool) (name ^ ": has persist events") true (total > 0);
      let o =
        Checker.run_case ~make ~ops:3_000 ~universe:300
          ~crash_after:(total / 2) ~seed:11 ()
      in
      Alcotest.(check bool) (name ^ ": crash fired") true o.Checker.crashed;
      Alcotest.(check (list string))
        (name ^ ": no violations") [] o.Checker.violations)
    (six_stores ())

(* ----------------------- Crash during recovery ---------------------------- *)

(* A Write-Intensive-Mode store with a cramped ABI: the recovery replay of
   the long log tail overflows MemTables and forces last-level compactions,
   i.e. durable writes DURING recovery — exactly where the second crash
   must land. *)
let wim_make () =
  let cfg =
    { Config.default with
      Config.shards = 2;
      memtable_slots = 32;
      levels = 2;
      ratio = 2;
      abi_slots_factor = 2;
      write_intensive = true }
  in
  Chameleondb.Store.store (Chameleondb.Store.create ~cfg ())

let test_recovery_crash_idempotent () =
  let fired = ref 0 in
  List.iter
    (fun (crash_after, recovery_after) ->
      let o =
        Checker.run_case ~make:wim_make ~ops:3_000 ~universe:300
          ~crash_after ~recovery_crash_after:recovery_after ~seed:5 ()
      in
      Alcotest.(check bool) "crash fired" true o.Checker.crashed;
      if o.Checker.recovery_crashed then incr fired;
      Alcotest.(check (list string)) "idempotent recovery" []
        o.Checker.violations)
    [ (10, 0); (10, 1); (40, 0); (40, 2); (75, 0); (75, 3) ];
  Alcotest.(check bool)
    (Printf.sprintf "recovery crashes actually fired (%d)" !fired)
    true (!fired >= 1)

(* WIM sweep doubles as the regression test for the absorb-floor ordering
   bug (absorb once published its floor before [ensure_abi_room], whose
   compaction could clear it, leaving absorbed ABI entries uncovered by any
   floor — found by this checker). *)
let test_wim_sweep () =
  let v =
    Sweep.run_store ~name:"ChamDB-WIM" ~make:wim_make ~seeds:[ 3 ]
      ~ops:3_000 ~universe:300 ()
  in
  Alcotest.(check bool) "crashes fired" true (v.Sweep.v_fired > 0);
  List.iter
    (fun f -> Alcotest.failf "WIM sweep: %s" (Sweep.repro_hint f.Sweep.f_case))
    v.Sweep.v_failures

(* A hint from a quick, cached sweep must rebuild that store configuration:
   without --quick and --cache-mb the replay runs a different store. *)
let test_repro_hint_carries_config () =
  let c =
    { Sweep.c_store = "ChameleonDB-MPH"; c_seed = 11; c_site = Fault_point.Gc;
      c_after = 4; c_recovery_after = Some 1 }
  in
  Alcotest.(check string) "quick, cached"
    "ckv crash --store ChameleonDB-MPH --seed 11 --site gc --at 4 \
     --recovery-at 1 --cache-mb 16 --quick"
    (Sweep.repro_hint ~quick:true ~cache_mb:16 c);
  Alcotest.(check string) "default scale, no cache"
    "ckv crash --store ChameleonDB-MPH --seed 11 --site gc --at 4 \
     --recovery-at 1"
    (Sweep.repro_hint c)

(* ------------------------------ Mutation test ----------------------------- *)

let test_mutant_broken_replay_caught () =
  let v =
    Sweep.run_store ~name:"Broken-Replay" ~make:Mutants.broken_replay
      ~seeds:[ 1; 2 ] ~ops:3_000 ~universe:200 ()
  in
  Alcotest.(check bool) "reversed replay rejected" false (Sweep.passed v)

(* ----------------------------- Seed threading ----------------------------- *)

let test_runner_carries_seed () =
  let store = (Harness.Stores.chameleon tiny).Harness.Stores.make () in
  let i = ref 0 in
  let r =
    Harness.Runner.run_ops ~seed:42 ~store ~threads:2 ~start_at:0.0 ~ops:100
      ~next:(fun () ->
        incr i;
        Kv_common.Types.Put (Workload.Keyspace.key_of_index !i, 8))
      ()
  in
  Alcotest.(check (option int)) "seed recorded" (Some 42)
    r.Harness.Runner.seed

let () =
  Alcotest.run "fault"
    [ ( "torn-writes",
        [ Alcotest.test_case "device torn crash" `Quick test_device_torn_crash;
          Alcotest.test_case "vlog torn batch" `Quick test_vlog_torn_batch ] );
      ( "checker",
        [ Alcotest.test_case "clean run (all stores)" `Quick
            test_checker_clean_run;
          Alcotest.test_case "crash case (all stores)" `Quick
            test_checker_crash_all_stores;
          Alcotest.test_case "crash-during-recovery idempotent" `Quick
            test_recovery_crash_idempotent;
          Alcotest.test_case "WIM sweep (absorb-floor regression)" `Quick
            test_wim_sweep;
          Alcotest.test_case "repro hint carries scale and cache" `Quick
            test_repro_hint_carries_config ] );
      ( "mutation",
        [ Alcotest.test_case "broken replay caught" `Quick
            test_mutant_broken_replay_caught ] );
      ( "harness",
        [ Alcotest.test_case "runner carries seed" `Quick
            test_runner_carries_seed ] ) ]
