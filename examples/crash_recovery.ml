(* Crash-recovery walkthrough: why ChameleonDB restarts fast, what
   Write-Intensive Mode trades away, and how the post-restart degraded
   window behaves (Sections 2.3 and 3.3 of the paper).

   Run with:  dune exec examples/crash_recovery.exe *)

module Store = Chameleondb.Store
module Config = Chameleondb.Config
module Store_intf = Kv_common.Store_intf
module Clock = Pmem_sim.Clock

let n = 150_000

(* sized so the load passes through last-level compactions: most of the
   index is persistent at crash time, as in the paper's billion-key runs *)
let cfg = Config.scaled ~shards:16 ~memtable_slots:128 Config.default

let load_and_crash ~cfg label =
  let db = Store.create ~cfg () in
  let clock = Clock.create () in
  for i = 0 to n - 1 do
    Store.write db clock (Workload.Keyspace.key_of_index i) (Store_intf.Sized 8)
  done;
  Store.crash db;
  let restart = Store.recover db clock in
  Printf.printf "%-28s restart %8s\n" label (Metrics.Table_fmt.cell_ns restart);
  (db, clock)

let () =
  Printf.printf "Loading %d keys into each store, then pulling the plug.\n\n"
    n;

  (* 1. Normal mode: only the MemTables need replaying. *)
  let db, clock = load_and_crash ~cfg "ChameleonDB (normal)" in

  (* The ABI rebuild runs in the background: gets are answered from the
     persistent levels (degraded, Pmem-LSM-NF-like) until it finishes. *)
  (* probe recently inserted keys: they live in the upper levels, the part
     of the index the ABI covers *)
  (* pick keys old enough to have been flushed out of the MemTables (the
     crash tail was just replayed into them) but recent enough to still be
     in the upper levels rather than the last level *)
  let degraded = ref 0 and dram = ref 0 and last = ref 0 in
  for i = n - 30_000 to n - 29_801 do
    match Store.read db clock (Workload.Keyspace.key_of_index i) with
    | { Store_intf.loc = Some _; stage = Store_intf.Upper; _ } ->
      incr degraded
    | { loc = Some _; stage = Store_intf.Abi | Store_intf.Memtable; _ } ->
      incr dram
    | { loc = Some _; stage = Store_intf.Last; _ } -> incr last
    | _ -> ()
  done;
  Printf.printf
    "  first 200 gets after restart: %d answered from upper Pmem levels \
     (degraded window), %d from the DRAM index, %d from the last level\n"
    !degraded !dram !last;
  Printf.printf
    "  (the ABI rebuild races the degraded gets; at this scale it wins \
     within microseconds)\n";
  Store.wait_background db clock;
  let dram2 = ref 0 in
  for i = n - 30_000 to n - 25_001 do
    match Store.read db clock (Workload.Keyspace.key_of_index i) with
    | { Store_intf.loc = Some _;
        stage = Store_intf.Abi | Store_intf.Memtable;
        _ } ->
      incr dram2
    | _ -> ()
  done;
  Printf.printf
    "  after the ABI rebuild: %d of 5000 recent-key gets hit the DRAM index\n\n"
    !dram2;

  (* 2. Write-Intensive Mode: higher put throughput, longer restart. *)
  let _ =
    load_and_crash
      ~cfg:{ cfg with Config.write_intensive = true }
      "ChameleonDB (WIM)"
  in

  (* 3. Dram-Hash for contrast: the whole log must be scanned. *)
  let dh = Baselines.Dram_hash.store (Baselines.Dram_hash.create ()) in
  let clock = Clock.create () in
  for i = 0 to n - 1 do
    Store_intf.write dh clock (Workload.Keyspace.key_of_index i)
      (Store_intf.Sized 8)
  done;
  Store_intf.crash dh;
  let t0 = Clock.now clock in
  Store_intf.recover dh clock;
  let restart = Clock.now clock -. t0 in
  Printf.printf "%-28s restart %8s   (full log scan)\n" "Dram-Hash"
    (Metrics.Table_fmt.cell_ns restart);
  print_endline "\ncrash_recovery OK"
