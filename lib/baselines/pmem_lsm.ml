module Clock = Pmem_sim.Clock
module Device = Pmem_sim.Device
module Cost_model = Pmem_sim.Cost_model
module Types = Kv_common.Types
module Vlog = Kv_common.Vlog
module Bloom = Kv_common.Bloom
module Flat_table = Kv_common.Flat_table
module Linear_table = Kv_common.Linear_table
module Config = Chameleondb.Config
module Memtable = Chameleondb.Memtable
module Levels = Chameleondb.Levels
module Manifest = Chameleondb.Manifest
module Fault_point = Kv_common.Fault_point

type variant = Nf | F | Pink

let variant_name = function
  | Nf -> "Pmem-LSM-NF"
  | F -> "Pmem-LSM-F"
  | Pink -> "Pmem-LSM-PinK"

(* Shared observability counters (same registry names as the ChameleonDB
   shard, so stage tallies are directly comparable across stores). *)
let c_flushes = Obs.Counters.counter "shard.flushes"
let c_flush_bytes = Obs.Counters.counter "flush.bytes"
let c_compaction_bytes = Obs.Counters.counter "compaction.bytes"
let c_put_stall_ns = Obs.Counters.counter "put.stall_ns"
let c_memtable_hits = Obs.Counters.counter "get.memtable_hits"
let c_bloom_fp = Obs.Counters.counter "bloom.false_positives"

(* Per-level false-positive counters, registered on first use (the global
   [c_bloom_fp] keeps its historical name for existing reports). *)
let fp_level_cache = Hashtbl.create 8

let c_bloom_fp_level level =
  match Hashtbl.find_opt fp_level_cache level with
  | Some c -> c
  | None ->
    let c =
      Obs.Counters.counter (Printf.sprintf "bloom.false_positives.L%d" level)
    in
    Hashtbl.add fp_level_cache level c;
    c

let bg_tid id = 1000 + id

type shard = {
  id : int;
  memtable : Memtable.t;
  lv : Levels.t;
  blooms : (int, Bloom.t) Hashtbl.t; (* keyed by table tag (F variant) *)
  mutable next_seq : int;
  mutable bg_free_at : float;
  mutable mt_floor : int;
  mutable last_bg_compacted : bool;
}

type t = {
  variant : variant;
  cfg : Config.t;
  bloom_bits : int;
  dev : Device.t;
  vlog : Vlog.t;
  manifest : Manifest.t;
  shards : shard array;
  mutable in_recovery : bool;
}

let create ?(cfg = Config.default) ?(bloom_bits = 10) ?dev variant =
  let dev =
    match dev with
    | Some d -> d
    | None -> Device.create Pmem_sim.Cost_model.optane
  in
  let vlog = Vlog.create ~batch_bytes:cfg.Config.vlog_batch_bytes dev in
  { variant;
    cfg;
    bloom_bits;
    dev;
    vlog;
    manifest = Manifest.create ~shards:cfg.Config.shards dev;
    in_recovery = false;
    shards =
      Array.init cfg.Config.shards (fun id ->
          { id;
            memtable = Memtable.create ~cfg ~shard_id:id;
            lv = Levels.create ~cfg;
            blooms = Hashtbl.create 16;
            next_seq = 1;
            bg_free_at = 0.0;
            mt_floor = 0;
            last_bg_compacted = false }) }

let shard_of t key =
  t.shards.(Kv_common.Hash.shard_of
              ~hash:(Kv_common.Hash.mix64 key)
              ~shards:t.cfg.Config.shards)

(* {2 Table construction, with variant-specific extras.} *)

let register_table t shard clock tbl entries =
  Linear_table.set_tag tbl shard.next_seq;
  shard.next_seq <- shard.next_seq + 1;
  (match t.variant with
  | F ->
    let bloom =
      Bloom.create
        ~expected:(max 16 (List.length entries))
        ~bits_per_key:t.bloom_bits
    in
    List.iter (fun (k, _) -> Bloom.add bloom clock k) entries;
    (* filter block persisted alongside the table, as in LevelDB *)
    Device.charge_append t.dev clock
      ~len:(int_of_float (Bloom.footprint_bytes bloom));
    Hashtbl.replace shard.blooms (Linear_table.tag tbl) bloom
  | Pink ->
    (* copy the fresh table into its pinned DRAM mirror *)
    Clock.advance clock
      (Cost_model.memcpy_ns_per_byte
      *. float_of_int (Linear_table.byte_size tbl))
  | Nf -> ());
  tbl

let build_table t shard clock ~slots entries =
  register_table t shard clock (Linear_table.build t.dev clock ~slots entries)
    entries

(* The last level is the ordered run, as in ChameleonDB: built dense and
   key-sorted during the wholesale merge rewrite so range scans cursor it. *)
let build_last_table t shard clock entries =
  register_table t shard clock
    (Linear_table.build_sorted t.dev clock entries)
    entries

let drop_table shard tbl =
  Hashtbl.remove shard.blooms (Linear_table.tag tbl);
  Linear_table.free tbl

(* Read a table's entries for compaction: PinK reads its DRAM mirror, the
   other variants stream from the Pmem. *)
let table_entries t clock tbl =
  let acc = ref [] in
  (match t.variant with
  | Pink ->
    Clock.advance clock
      (Cost_model.memcpy_ns_per_byte
      *. float_of_int (Linear_table.byte_size tbl));
    Linear_table.iter_silent tbl (fun k l -> acc := (k, l) :: !acc)
  | Nf | F -> Linear_table.iter tbl clock (fun k l -> acc := (k, l) :: !acc));
  List.rev !acc

let merge_newest_first ?drop_tombstones clock per_table_entries =
  Kv_common.Merge.newest_first ?drop_tombstones
    ~on_entry:(fun () -> Clock.advance clock Cost_model.key_compare_ns)
    (List.map Kv_common.Merge.of_list per_table_entries)

(* {2 Level-by-level size-tiered compaction with a leveled last level.} *)

let rec cascade t shard bg ~level =
  let u = Config.upper_levels t.cfg in
  let tables = (Levels.upper shard.lv).(level) in
  let sources = List.map (table_entries t bg) tables in
  if level + 1 <= u - 1 then begin
    Fault_point.with_site Fault_point.Upper_compaction (fun () ->
        let entries = merge_newest_first bg sources in
        let slots = Levels.table_slots ~cfg:t.cfg ~level:(level + 1) in
        let fresh = build_table t shard bg ~slots entries in
        Obs.Counters.add_int c_compaction_bytes (Linear_table.byte_size fresh);
        List.iter (drop_table shard) tables;
        (Levels.upper shard.lv).(level) <- [];
        Levels.add_table shard.lv ~level:(level + 1) fresh);
    if Levels.level_len shard.lv (level + 1) >= t.cfg.Config.ratio then
      cascade t shard bg ~level:(level + 1)
  end
  else begin
    Fault_point.with_site Fault_point.Last_level_merge @@ fun () ->
    let last_entries =
      match Levels.last shard.lv with
      | None -> []
      | Some tbl ->
        (* the last level is never pinned: always a Pmem read *)
        let acc = ref [] in
        Linear_table.iter tbl bg (fun k l -> acc := (k, l) :: !acc);
        [ List.rev !acc ]
    in
    let entries =
      merge_newest_first ~drop_tombstones:true bg (sources @ last_entries)
    in
    let fresh = build_last_table t shard bg entries in
    Obs.Counters.add_int c_compaction_bytes (Linear_table.byte_size fresh);
    (match Levels.last shard.lv with
    | Some old -> drop_table shard old
    | None -> ());
    Levels.set_last shard.lv (Some fresh);
    List.iter (drop_table shard) tables;
    (Levels.upper shard.lv).(level) <- []
  end

let flush t shard clock =
  let stall = Clock.wait_until clock shard.bg_free_at in
  if stall > 0.0 then begin
    Obs.Counters.add c_put_stall_ns stall;
    if Obs.Attribution.enabled () then
      Obs.Attribution.add
        (if shard.last_bg_compacted then Obs.Attribution.Put_compaction_stall
         else Obs.Attribution.Put_flush_stall)
        stall
  end;
  Obs.Counters.incr c_flushes;
  let entries = Memtable.entries shard.memtable in
  (* keep the floor below the log entry of the put that triggered us *)
  let floor' = max shard.mt_floor (Vlog.length t.vlog - 1) in
  let bg = Clock.create ~at:(Clock.now clock) () in
  Obs.Trace.begin_span bg ~tid:(bg_tid shard.id) ~cat:"bg" "flush";
  Fault_point.with_site Fault_point.Flush (fun () ->
      Vlog.flush t.vlog bg;
      let tbl =
        build_table t shard bg ~slots:t.cfg.Config.memtable_slots entries
      in
      Obs.Counters.add_int c_flush_bytes (Linear_table.byte_size tbl);
      Levels.add_table shard.lv ~level:0 tbl;
      shard.last_bg_compacted <- false;
      if Levels.l0_full shard.lv then begin
        Obs.Trace.begin_span bg ~tid:(bg_tid shard.id) ~cat:"compaction"
          "compact";
        cascade t shard bg ~level:0;
        Obs.Trace.end_span bg ~tid:(bg_tid shard.id) ~cat:"compaction"
          "compact";
        shard.last_bg_compacted <- true
      end;
      (* persist the recovery floor last, once everything it stands for is
         durable — except while recovery itself replays the log: entries
         past the replay point are in no table yet, so advancing the
         persisted floor mid-replay would lose them if recovery crashed *)
      if not t.in_recovery then
        Manifest.set_floors t.manifest bg ~shard:shard.id ~mt_floor:floor'
          ~absorb_floor:None);
  Obs.Trace.end_span bg ~tid:(bg_tid shard.id) ~cat:"bg" "flush";
  shard.bg_free_at <- Clock.now bg;
  Memtable.reset shard.memtable;
  shard.mt_floor <- floor'

let rec shard_put t shard clock key loc =
  let attr = Obs.Attribution.enabled () in
  let t0 = if attr then Clock.now clock else 0.0 in
  match Memtable.put shard.memtable clock key loc with
  | `Ok ->
    if attr then
      Obs.Attribution.add Obs.Attribution.Put_index_insert
        (Clock.now clock -. t0)
  | `Full ->
    if attr then
      Obs.Attribution.add Obs.Attribution.Put_index_insert
        (Clock.now clock -. t0);
    flush t shard clock;
    shard_put t shard clock key loc

let put t clock key ~vlen =
  Obs.Trace.begin_span clock ~cat:"op" "put";
  let loc = Vlog.append t.vlog clock key ~vlen in
  shard_put t (shard_of t key) clock key loc;
  Obs.Trace.end_span clock ~cat:"op" "put"

let delete t clock key =
  Obs.Trace.begin_span clock ~cat:"op" "delete";
  let _loc = Vlog.append t.vlog clock key ~vlen:(-1) in
  shard_put t (shard_of t key) clock key Types.tombstone;
  Obs.Trace.end_span clock ~cat:"op" "delete"

(* {2 Get path: MemTable, then every table level by level.} *)

(* F variant: consult the table's filter before probing the device. *)
let probe_filtered shard clock ~level tbl key =
  let bloom = Hashtbl.find_opt shard.blooms (Linear_table.tag tbl) in
  let maybe_present =
    match bloom with Some b -> Bloom.mem ~level b clock key | None -> true
  in
  if maybe_present then begin
    let r = Linear_table.get tbl clock key in
    if r = Linear_table.Absent && bloom <> None then begin
      Obs.Counters.incr c_bloom_fp;
      Obs.Counters.incr (c_bloom_fp_level level)
    end;
    r
  end
  else Linear_table.Absent

let probe_table t shard clock ~level tbl key =
  match t.variant with
  | Pink ->
    (* DRAM mirror probe: not subject to media corruption *)
    let result, probes = Linear_table.get_silent tbl key in
    Clock.advance clock
      (Cost_model.dram_read_ns
      +. (float_of_int (max 0 (probes - 1)) *. Cost_model.dram_hit_ns));
    (match result with
    | Some loc -> Linear_table.Found loc
    | None -> Linear_table.Absent)
  | Nf -> Linear_table.get tbl clock key
  | F -> probe_filtered shard clock ~level tbl key

(* The last level is never pinned in DRAM: even PinK probes it on the
   device (the F variant still consults its filter first). *)
let probe_last t shard clock ~level tbl key =
  match t.variant with
  | Nf | Pink -> Linear_table.get tbl clock key
  | F -> probe_filtered shard clock ~level tbl key

let shard_get t shard clock key =
  let attr = Obs.Attribution.enabled () in
  let t0 = if attr then Clock.now clock else 0.0 in
  let mt = Memtable.get shard.memtable clock key in
  if attr then
    Obs.Attribution.add Obs.Attribution.Get_memtable (Clock.now clock -. t0);
  match mt with
  | Some loc ->
    Obs.Counters.incr c_memtable_hits;
    (`Hit loc, 0)
  | None ->
    let t1 = if attr then Clock.now clock else 0.0 in
    let of_probe = function
      | Linear_table.Found loc -> `Hit loc
      | Linear_table.Absent -> `Miss
      | Linear_table.Corrupted -> `Corrupt
    in
    let u = Config.upper_levels t.cfg in
    (* walk the levels by index (same newest-first order as the flattened
       [upper_tables_newest_first]) so filter probes carry their level *)
    let rec go_level n level =
      if level >= u then
        match Levels.last shard.lv with
        | Some tbl ->
          (of_probe (probe_last t shard clock ~level:u tbl key), n + 1)
        | None -> (`Miss, n)
      else begin
        let rec go_tables n = function
          | [] -> go_level n (level + 1)
          | tbl :: rest ->
            (* a corrupt block fails the whole probe closed: falling through
               to an older level could resurrect a superseded version *)
            (match probe_table t shard clock ~level tbl key with
            | Linear_table.Found loc -> (`Hit loc, n + 1)
            | Linear_table.Corrupted -> (`Corrupt, n + 1)
            | Linear_table.Absent -> go_tables (n + 1) rest)
        in
        go_tables n (Levels.upper shard.lv).(level)
      end
    in
    let r = go_level 0 0 in
    if attr then
      Obs.Attribution.add Obs.Attribution.Get_level_probe
        (Clock.now clock -. t1);
    r

let read_with_level t clock key =
  Obs.Trace.begin_span clock ~cat:"op" "get";
  let result, probed = shard_get t (shard_of t key) clock key in
  let result = Kv_common.Store_intf.index_read t.vlog clock key result in
  Obs.Trace.end_span clock ~cat:"op" "get";
  (result, probed)

let get_with_level t clock key =
  let r, probed = read_with_level t clock key in
  (r.Kv_common.Store_intf.loc, probed)

let flush_all t clock =
  Array.iter
    (fun shard ->
      if Memtable.count shard.memtable > 0 then flush t shard clock)
    t.shards;
  Vlog.flush t.vlog clock

(* {2 Range scan: per-shard merge streams, newest source first — MemTable,
   upper tables by recency, last level — then a cross-shard min-merge.
   Upper (hashed) runs are snapshotted and sorted; PinK reads its DRAM
   mirrors, the other variants stream from Pmem with verification.  The
   sorted last level streams lazily through its cursor.} *)

module Scan = Kv_common.Scan

let scan t clock ~start ~limit =
  if limit < 0 then invalid_arg "Pmem_lsm.scan: negative limit";
  Obs.Trace.begin_span clock ~cat:"op" "scan";
  let run_stream tbl =
    match t.variant with
    | Pink ->
      (* DRAM mirror read: not subject to media faults *)
      Scan.of_iter clock ~start (fun f ->
          List.iter (fun (k, l) -> f k l) (table_entries t clock tbl))
    | Nf | F ->
      if Linear_table.intact tbl clock then
        Scan.of_iter clock ~start (fun f -> Linear_table.iter tbl clock f)
      else fun () -> Scan.Error
  in
  let shard_stream shard =
    let mem =
      Scan.of_iter clock ~start (fun f ->
          Flat_table.iter (Memtable.table shard.memtable) f)
    in
    let upper =
      List.map run_stream (Levels.upper_tables_newest_first shard.lv ())
    in
    let last =
      match Levels.last shard.lv with
      | None -> []
      | Some tbl when Linear_table.is_sorted tbl ->
        [ Scan.of_cursor (Linear_table.cursor tbl clock ~start) ]
      | Some tbl -> [ run_stream tbl ]
    in
    Scan.merge ((mem :: upper) @ last)
  in
  let merged =
    Scan.merge (Array.to_list (Array.map shard_stream t.shards))
  in
  let entries, _status = Scan.take (Scan.live merged) ~limit in
  Obs.Trace.end_span clock ~cat:"op" "scan";
  entries

(* {2 Crash and recovery: only MemTables are volatile (plus the PinK DRAM
   mirrors and the F filters, both rebuilt by scanning the tables).} *)

let crash t =
  Device.crash t.dev;
  Vlog.crash t.vlog;
  Array.iter
    (fun shard ->
      Memtable.reset shard.memtable;
      shard.bg_free_at <- 0.0;
      (* the recovery floor comes back from the manifest's device-backed
         record, not from the DRAM copy *)
      let mt, _ = Manifest.floors t.manifest ~shard:shard.id in
      shard.mt_floor <- min mt (Vlog.persisted t.vlog))
    t.shards

let recover t clock =
  Fault_point.with_site Fault_point.Recovery @@ fun () ->
  t.in_recovery <- true;
  Fun.protect ~finally:(fun () -> t.in_recovery <- false) @@ fun () ->
  let t0 = Clock.now clock in
  let marks = Array.map (fun s -> s.mt_floor) t.shards in
  let lo = Array.fold_left min (Vlog.persisted t.vlog) marks in
  Vlog.iter_range t.vlog clock ~lo ~hi:(Vlog.persisted t.vlog)
    (fun loc key vlen ->
      let ix =
        Kv_common.Hash.shard_of
          ~hash:(Kv_common.Hash.mix64 key)
          ~shards:t.cfg.Config.shards
      in
      if loc >= marks.(ix) then begin
        let index_loc = if vlen < 0 then Types.tombstone else loc in
        match Memtable.put t.shards.(ix).memtable clock key index_loc with
        | `Ok -> ()
        | `Full ->
          (* recovered tail exceeds one MemTable: flush as usual *)
          flush t t.shards.(ix) clock;
          (match
             Memtable.put t.shards.(ix).memtable clock key index_loc
           with
          | `Ok -> ()
          | `Full -> assert false)
      end);
  (* variant-specific rebuild work *)
  Array.iter
    (fun shard ->
      let tables =
        Levels.upper_tables_newest_first shard.lv ()
        @ (match Levels.last shard.lv with Some tbl -> [ tbl ] | None -> [])
      in
      match t.variant with
      | Nf -> ()
      | Pink ->
        (* re-read upper tables into DRAM *)
        List.iter
          (fun tbl ->
            Device.charge_read_bytes t.dev clock
              ~len:(Linear_table.byte_size tbl)
              ~hint:Bulk)
          (Levels.upper_tables_newest_first shard.lv ())
      | F ->
        (* filter blocks are persistent: recovery reads them back from the
           device (contents reconstructed without CPU-cost charging) *)
        List.iter
          (fun tbl ->
            let bloom =
              Bloom.create
                ~expected:(max 16 (Linear_table.count tbl))
                ~bits_per_key:t.bloom_bits
            in
            Linear_table.iter_silent tbl (fun k _ -> Bloom.add_silent bloom k);
            Device.charge_read_bytes t.dev clock
              ~len:(int_of_float (Bloom.footprint_bytes bloom))
              ~hint:Bulk;
            Hashtbl.replace shard.blooms (Linear_table.tag tbl) bloom)
          tables)
    t.shards;
  Clock.now clock -. t0

let dram_footprint t =
  Array.fold_left
    (fun acc shard ->
      let base = acc +. Memtable.footprint_bytes shard.memtable in
      match t.variant with
      | Nf -> base
      | F ->
        Hashtbl.fold
          (fun _ bloom a -> a +. Bloom.footprint_bytes bloom)
          shard.blooms base
      | Pink ->
        (* DRAM mirrors of the upper levels *)
        List.fold_left
          (fun a tbl -> a +. float_of_int (Linear_table.byte_size tbl))
          base
          (Levels.upper_tables_newest_first shard.lv ()))
    (Vlog.dram_footprint t.vlog)
    t.shards

let check_invariants t =
  let u = Config.upper_levels t.cfg in
  let bad = ref None in
  Array.iter
    (fun shard ->
      for k = 0 to u - 1 do
        let len = Levels.level_len shard.lv k in
        if !bad = None && len > t.cfg.Config.ratio then
          bad :=
            Some
              (Printf.sprintf "shard %d: level %d has %d tables (max %d)"
                 shard.id k len t.cfg.Config.ratio)
      done)
    t.shards;
  match !bad with Some msg -> Error msg | None -> Ok ()

let store t : Kv_common.Store_intf.store =
  (module struct
    include Kv_common.Store_intf.No_integrity

    let name = variant_name t.variant

    let write clock key spec =
      put t clock key ~vlen:(Kv_common.Store_intf.spec_vlen spec)

    let write_batch = Kv_common.Store_intf.sequential_write_batch write
    let read clock key = fst (read_with_level t clock key)
    let delete clock key = delete t clock key
    let scan clock ~start ~limit = scan t clock ~start ~limit
    let flush clock = flush_all t clock
    let crash () = crash t
    let recover clock = ignore (recover t clock)
    let check_invariants () = check_invariants t
    let dram_footprint () = dram_footprint t
    let pmem_footprint () = Device.used_bytes t.dev
    let device = t.dev
    let vlog = t.vlog

    let fault_points =
      Fault_point.
        [ Foreground; Flush; Upper_compaction; Last_level_merge;
          Manifest_update; Recovery ]
  end)

