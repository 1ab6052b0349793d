module Clock = Pmem_sim.Clock
module Device = Pmem_sim.Device
module Flat_table = Kv_common.Flat_table
module Linear_table = Kv_common.Linear_table
module Types = Kv_common.Types
module Vlog = Kv_common.Vlog
module Fault_point = Kv_common.Fault_point
module Hash = Kv_common.Hash

type hit_stage =
  | Hit_memtable
  | Hit_abi
  | Hit_dump
  | Hit_upper
  | Hit_last
  | Miss
  | Hit_corrupt
      (* a table block the probe needed failed verification: fail closed,
         never serve around it — and the shard needs scrub attention *)
  | Hit_quarantined
      (* the newest version is quarantined (index marker): containment is
         already in place, the read answers an explicit error *)

(* Unified observability counters (Obs.Counters registry); the per-shard
   [counters] record below stays the per-instance view consumed by
   [Store.totals] and [Report]. *)
let c_flushes = Obs.Counters.counter "shard.flushes"
let c_upper_compactions = Obs.Counters.counter "shard.upper_compactions"
let c_last_compactions = Obs.Counters.counter "shard.last_compactions"
let c_abi_dumps = Obs.Counters.counter "shard.abi_dumps"
let c_absorbs = Obs.Counters.counter "shard.absorbs"
let c_put_stall_ns = Obs.Counters.counter "put.stall_ns"
let c_flush_bytes = Obs.Counters.counter "flush.bytes"
let c_compaction_bytes = Obs.Counters.counter "compaction.bytes"
let c_memtable_hits = Obs.Counters.counter "get.memtable_hits"
let c_abi_hits = Obs.Counters.counter "get.abi_hits"
let c_rebuilds = Obs.Counters.counter "shard.vlog_rebuilds"

(* Background work is traced on a per-shard virtual thread. *)
let bg_tid id = 1000 + id

type counters = {
  mutable flushes : int;
  mutable upper_compactions : int;
  mutable last_compactions : int;
  mutable abi_dumps : int;
  mutable absorbs : int;
  mutable stall_ns : float;
}

type t = {
  id : int;
  cfg : Config.t;
  dev : Device.t;
  vlog : Vlog.t;
  manifest : Manifest.t option;
  memtable : Memtable.t;
  lv : Levels.t;
  mutable abi : Flat_table.t;
  mutable dumps : Linear_table.t list; (* newest first *)
  mutable bg_free_at : float;
  mutable abi_ready_at : float;
  mutable mt_floor : int;
      (* log length when the MemTable was last empty: entries beyond it may
         live only in the MemTable *)
  mutable absorb_floor : int option;
      (* log length at the first ABI absorption since the ABI was last made
         persistent (dump or last-level compaction) *)
  mutable next_seq : int; (* recency tags for persistent tables *)
  mutable last_bg_compacted : bool;
      (* whether the most recent background job ran a compaction: decides
         if a put stalling behind it is attributed to flush or compaction *)
  mutable notify_quarantine : Kv_common.Types.key -> unit;
      (* the store hooks cache invalidation and counters in here; shard-
         internal repair (rebuild-from-vlog) quarantines through it *)
  ctr : counters;
}

let abi_slots cfg = cfg.Config.abi_slots_factor * cfg.Config.memtable_slots

let make_abi cfg =
  Flat_table.create ~load_factor:Config.abi_load_factor
    ~slots:(abi_slots cfg) ()

let create ?manifest ~cfg ~id dev vlog =
  { id;
    cfg;
    dev;
    vlog;
    manifest;
    memtable = Memtable.create ~cfg ~shard_id:id;
    lv = Levels.create ~cfg;
    abi = make_abi cfg;
    dumps = [];
    bg_free_at = 0.0;
    abi_ready_at = 0.0;
    mt_floor = 0;
    absorb_floor = None;
    next_seq = 1;
    last_bg_compacted = false;
    notify_quarantine = (fun _ -> ());
    ctr =
      { flushes = 0;
        upper_compactions = 0;
        last_compactions = 0;
        abi_dumps = 0;
        absorbs = 0;
        stall_ns = 0.0 } }

let counters t = t.ctr
let levels t = t.lv
let abi_count t = Flat_table.count t.abi
let memtable_count t = Memtable.count t.memtable
let dump_count t = List.length t.dumps
let abi_ready_at t = t.abi_ready_at
let background_free_at t = t.bg_free_at

let persisted_mark t =
  match t.absorb_floor with
  | None -> t.mt_floor
  | Some f -> min f t.mt_floor

let fresh_tag t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

let build_table t clock ~slots entries =
  let tbl = Linear_table.build t.dev clock ~slots entries in
  Linear_table.set_tag tbl (fresh_tag t);
  tbl

(* The last level is one dense run, rebuilt wholesale by every merge.
   [Probe] (default) keys it in sorted order so range scans can cursor it
   (sorting rides on the rewrite, charged at [sort_per_key_ns]); [Mph]
   lays the slots out under a minimal perfect hash built at merge time,
   so a point get costs exactly one device read (scans then fall back to
   the snapshot path). *)
let build_last_table t clock entries =
  let tbl =
    match t.cfg.Config.index_kind with
    | Config.Probe -> Linear_table.build_sorted t.dev clock entries
    | Config.Mph ->
      Linear_table.build_mph t.dev clock ~seed:t.cfg.Config.seed entries
  in
  Linear_table.set_tag tbl (fresh_tag t);
  tbl

let merge_entries = Kv_common.Merge.newest_first

let abi_iter_source t visit = Flat_table.iter t.abi visit

let table_iter_source clock tbl visit = Linear_table.iter tbl clock visit

let round_up_to v m = (v + m - 1) / m * m

let set_notify_quarantine t f = t.notify_quarantine <- f
let floors t = (t.mt_floor, t.absorb_floor)

let owns t key =
  Hash.shard_of ~hash:(Hash.mix64 key) ~shards:t.cfg.Config.shards = t.id

(* Every persistent run this shard holds (dumps, upper levels, last), for
   the scrubber's whole-run verification. *)
let persistent_tables t =
  t.dumps
  @ Levels.upper_tables_newest_first t.lv ()
  @ (match Levels.last t.lv with Some tbl -> [ tbl ] | None -> [])

(* Verify compaction inputs before trusting their slots.  The streaming
   [iter] a merge performs already pays the device traffic, so only the
   CRC pass is charged here ([charge_read] stays false). *)
let sources_intact bg tables =
  List.for_all (fun tbl -> Linear_table.intact tbl bg) tables

(* Repair path: rebuild this shard's entire index from the value log.
   Every live index entry points at a log location >= the log head (GC
   maintains this), so replaying [head, persisted) reconstructs a complete
   index no matter which table run was damaged.  The result is one fresh
   last-level table; the MemTable, ABI, dumps and upper levels are all
   dropped — their content is re-derived from the log.  Corrupt log
   records owned by this shard whose version is still newest are
   quarantined: indexed as {!Types.corrupt_marker} so reads answer an
   explicit error rather than a silent miss or a stale version. *)
let rebuild_from_vlog t bg =
  Fault_point.with_site Fault_point.Scrub @@ fun () ->
  Obs.Counters.incr c_rebuilds;
  Obs.Trace.begin_span bg ~tid:(bg_tid t.id) ~cat:"bg" "vlog-rebuild";
  Vlog.flush t.vlog bg;
  let newest = Hashtbl.create 1024 in
  let corrupt_seen = Hashtbl.create 8 in
  Vlog.iter_range t.vlog bg ~lo:(Vlog.head t.vlog)
    ~hi:(Vlog.persisted t.vlog)
    ~on_corrupt:(fun _loc key _vlen ->
      (* untrusted key: used only to place a conservative quarantine *)
      if owns t key then begin
        Hashtbl.replace newest key Types.corrupt_marker;
        Hashtbl.replace corrupt_seen key ()
      end)
    (fun loc key vlen ->
      if owns t key then begin
        Hashtbl.replace newest key
          (if vlen = Types.corrupt_marker then Types.corrupt_marker
           else if vlen < 0 then Types.tombstone
           else loc);
        (* a later valid record supersedes the rot; a later quarantine
           record means the containment is already durable and counted *)
        Hashtbl.remove corrupt_seen key
      end);
  (* Make fresh quarantines durable in the log, as [Store.quarantine]
     would: without the marker record, the next scan of the still-corrupt
     entry would count the same incident again. *)
  Hashtbl.iter
    (fun k () ->
      if Hashtbl.find_opt newest k = Some Types.corrupt_marker then
        ignore (Vlog.append t.vlog bg k ~vlen:Types.corrupt_marker))
    corrupt_seen;
  Vlog.flush t.vlog bg;
  let entries =
    Hashtbl.fold
      (fun k l acc -> if Types.is_tombstone l then acc else (k, l) :: acc)
      newest []
  in
  let live = List.length entries in
  (* Build the replacement run BEFORE dropping anything: a crash at the
     build's persist must leave the old structures (and old floors) in
     place, from which recovery proceeds as if the rebuild never started. *)
  let fresh =
    if live = 0 then None
    else begin
      let tbl = build_last_table t bg entries in
      Obs.Counters.add_int c_compaction_bytes (Linear_table.byte_size tbl);
      Some tbl
    end
  in
  Memtable.reset t.memtable;
  Flat_table.clear t.abi;
  List.iter Linear_table.free t.dumps;
  t.dumps <- [];
  Levels.clear_upper_range t.lv ~upto:(Config.upper_levels t.cfg - 1);
  (match Levels.last t.lv with Some old -> Linear_table.free old | None -> ());
  Levels.set_last t.lv fresh;
  t.absorb_floor <- None;
  t.mt_floor <- Vlog.persisted t.vlog;
  (match t.manifest with
  | Some m when Manifest.shards m > t.id ->
    Manifest.set_floors m bg ~shard:t.id ~mt_floor:t.mt_floor
      ~absorb_floor:None
  | Some _ | None -> ());
  (* report quarantines only for keys whose final log version really is
     the corrupt record (later intact versions supersede earlier rot) *)
  Hashtbl.iter
    (fun k () ->
      if Hashtbl.find_opt newest k = Some Types.corrupt_marker then
        t.notify_quarantine k)
    corrupt_seen;
  Obs.Trace.end_span bg ~tid:(bg_tid t.id) ~cat:"bg" "vlog-rebuild"

(* {2 Last-level compaction (leveled), Direct flavour: fed from the ABI
   (Fig. 8) plus any GPM-dumped tables, merged with the old last level.
   Clears the upper levels, the dumps and the ABI. } *)

let last_level_compact t bg =
  let source_tables =
    (if t.cfg.Config.abi_enabled then []
     else Levels.upper_tables_newest_first t.lv ())
    @ t.dumps
    @ (match Levels.last t.lv with None -> [] | Some tbl -> [ tbl ])
  in
  if not (sources_intact bg source_tables) then
    (* merging unverifiable slots would launder corruption into a fresh
       run; rebuild the shard from the value log instead *)
    rebuild_from_vlog t bg
  else begin
  Fault_point.with_site Fault_point.Last_level_merge @@ fun () ->
  t.ctr.last_compactions <- t.ctr.last_compactions + 1;
  Obs.Counters.incr c_last_compactions;
  Obs.Trace.begin_span bg ~tid:(bg_tid t.id) ~cat:"compaction" "compact:last";
  (* write-ahead order: absorbed ABI entries may reference log records from
     the open batch; they must be durable before a persistent table points
     at them, or a crash truncates the log under the new last level.
     (Found by the crash checker; test_fault's WIM sweep keeps the
     regression.) *)
  Vlog.flush t.vlog bg;
  let upper_sources =
    if t.cfg.Config.abi_enabled then [ abi_iter_source t ]
    else
      (* ablation: without the ABI the upper levels are re-read from the
         device, ordered newest first *)
      List.map (table_iter_source bg) (Levels.upper_tables_newest_first t.lv ())
  in
  let dump_sources = List.map (table_iter_source bg) t.dumps in
  let last_source =
    match Levels.last t.lv with
    | None -> []
    | Some tbl -> [ table_iter_source bg tbl ]
  in
  let entries =
    merge_entries ~drop_tombstones:true
      (upper_sources @ dump_sources @ last_source)
  in
  (* charge the DRAM-side sequential scan of the ABI *)
  if t.cfg.Config.abi_enabled then
    Clock.advance bg
      (float_of_int (Flat_table.count t.abi)
      *. Pmem_sim.Cost_model.scan_per_entry_ns);
  let fresh = build_last_table t bg entries in
  Obs.Counters.add_int c_compaction_bytes (Linear_table.byte_size fresh);
  (match Levels.last t.lv with Some old -> Linear_table.free old | None -> ());
  Levels.set_last t.lv (Some fresh);
  List.iter Linear_table.free t.dumps;
  t.dumps <- [];
  Levels.clear_upper_range t.lv ~upto:(Config.upper_levels t.cfg - 1);
  Flat_table.clear t.abi;
  t.absorb_floor <- None;
  Obs.Trace.end_span bg ~tid:(bg_tid t.id) ~cat:"compaction" "compact:last"
  end

(* {2 Size-tiered Direct Compaction among upper levels: merge levels
   [0, target-1] into a single level-[target] table.} *)

let direct_merge_upper t bg ~target =
  let sources = Levels.upper_tables_newest_first t.lv ~upto:(target - 1) () in
  if not (sources_intact bg sources) then rebuild_from_vlog t bg
  else begin
  Fault_point.with_site Fault_point.Direct_compaction @@ fun () ->
  t.ctr.upper_compactions <- t.ctr.upper_compactions + 1;
  Obs.Counters.incr c_upper_compactions;
  Obs.Trace.begin_span bg ~tid:(bg_tid t.id) ~cat:"compaction" "compact:upper";
  let entries =
    merge_entries (List.map (table_iter_source bg) sources)
  in
  let slots = Levels.table_slots ~cfg:t.cfg ~level:target in
  let fresh = build_table t bg ~slots entries in
  Obs.Counters.add_int c_compaction_bytes (Linear_table.byte_size fresh);
  Levels.clear_upper_range t.lv ~upto:(target - 1);
  Levels.add_table t.lv ~level:target fresh;
  Obs.Trace.end_span bg ~tid:(bg_tid t.id) ~cat:"compaction" "compact:upper"
  end

(* {2 Level-by-level compaction cascade (Fig. 15 ablation).} *)

let rec cascade_compact t bg ~level =
  let u = Config.upper_levels t.cfg in
  let tables = (Levels.upper t.lv).(level) in
  if level + 1 <= u - 1 then begin
    if not (sources_intact bg tables) then rebuild_from_vlog t bg
    else begin
      Fault_point.with_site Fault_point.Upper_compaction (fun () ->
          t.ctr.upper_compactions <- t.ctr.upper_compactions + 1;
          Obs.Counters.incr c_upper_compactions;
          let entries =
            merge_entries (List.map (table_iter_source bg) tables)
          in
          let slots = Levels.table_slots ~cfg:t.cfg ~level:(level + 1) in
          let fresh = build_table t bg ~slots entries in
          Obs.Counters.add_int c_compaction_bytes
            (Linear_table.byte_size fresh);
          List.iter Linear_table.free tables;
          (Levels.upper t.lv).(level) <- [];
          Levels.add_table t.lv ~level:(level + 1) fresh);
      if Levels.level_len t.lv (level + 1) >= t.cfg.Config.ratio then
        cascade_compact t bg ~level:(level + 1)
    end
  end
  else begin
    (* merging the deepest upper level into the last level: a full cascade
       has emptied every other upper level, so afterwards the ABI can simply
       be cleared.  Absorbed (DRAM-only) entries require the ABI-fed direct
       path instead. *)
    match t.absorb_floor with
    | Some _ -> last_level_compact t bg
    | None ->
      let last_tables =
        match Levels.last t.lv with None -> [] | Some tbl -> [ tbl ]
      in
      if not (sources_intact bg (tables @ last_tables)) then
        rebuild_from_vlog t bg
      else begin
      Fault_point.with_site Fault_point.Last_level_merge @@ fun () ->
      t.ctr.last_compactions <- t.ctr.last_compactions + 1;
      Obs.Counters.incr c_last_compactions;
      let last_source = List.map (table_iter_source bg) last_tables in
      let entries =
        merge_entries ~drop_tombstones:true
          (List.map (table_iter_source bg) tables @ last_source)
      in
      let fresh = build_last_table t bg entries in
      Obs.Counters.add_int c_compaction_bytes (Linear_table.byte_size fresh);
      (match Levels.last t.lv with
      | Some old -> Linear_table.free old
      | None -> ());
      Levels.set_last t.lv (Some fresh);
      List.iter Linear_table.free tables;
      (Levels.upper t.lv).(level) <- [];
      if Levels.upper_entry_count t.lv = 0 then Flat_table.clear t.abi
      end
  end

let maybe_compact t bg =
  if Levels.l0_full t.lv then begin
    match t.cfg.Config.compaction with
    | Config.Level_by_level -> cascade_compact t bg ~level:0
    | Config.Direct ->
      let u = Config.upper_levels t.cfg in
      let rec find k =
        if k > u - 1 then None
        else if Levels.level_len t.lv k < t.cfg.Config.ratio - 1 then Some k
        else find (k + 1)
      in
      (match find 1 with
      | Some target -> direct_merge_upper t bg ~target
      | None -> last_level_compact t bg)
  end

(* {2 ABI room management.} *)

let abi_has_room_for t n =
  float_of_int (Flat_table.count t.abi + n)
  <= Flat_table.threshold t.abi *. float_of_int (Flat_table.slots t.abi)

let dump_abi t bg =
  Fault_point.with_site Fault_point.Abi_dump @@ fun () ->
  t.ctr.abi_dumps <- t.ctr.abi_dumps + 1;
  Obs.Counters.incr c_abi_dumps;
  Obs.Trace.begin_span bg ~tid:(bg_tid t.id) ~cat:"bg" "abi-dump";
  (* same write-ahead order as [last_level_compact]: absorbed entries'
     log records must be durable before the dumped table is *)
  Vlog.flush t.vlog bg;
  let entries = ref [] in
  Flat_table.iter t.abi (fun k l -> entries := (k, l) :: !entries);
  Clock.advance bg
    (float_of_int (Flat_table.count t.abi)
    *. Pmem_sim.Cost_model.scan_per_entry_ns);
  (* size the dumped table at a moderate load factor: it will serve point
     lookups (mostly misses) until it is merged, and linear-probing miss
     chains explode near full occupancy *)
  let slots =
    max t.cfg.Config.memtable_slots
      (round_up_to
         (int_of_float
            (Float.ceil (float_of_int (List.length !entries) /. 0.6)))
         t.cfg.Config.memtable_slots)
  in
  let tbl = build_table t bg ~slots !entries in
  t.dumps <- tbl :: t.dumps;
  Flat_table.clear t.abi;
  t.absorb_floor <- None;
  Obs.Trace.end_span bg ~tid:(bg_tid t.id) ~cat:"bg" "abi-dump"

let ensure_abi_room t bg ~incoming ~can_dump =
  if not (abi_has_room_for t incoming) then begin
    if can_dump && List.length t.dumps < t.cfg.Config.gpm_max_dumps then
      dump_abi t bg
    else last_level_compact t bg
  end

(* Run background work: the caller (a put that filled the MemTable) waits
   for any previous background job, then [f] runs on the background clock
   starting at the caller's current time.  A stall is attributed to the kind
   of work the caller waited behind — whatever the previous background job
   was doing. *)
let with_background t clock ~label f =
  let stall = Clock.wait_until clock t.bg_free_at in
  t.ctr.stall_ns <- t.ctr.stall_ns +. stall;
  if stall > 0.0 then begin
    Obs.Counters.add c_put_stall_ns stall;
    if Obs.Attribution.enabled () then
      Obs.Attribution.add
        (if t.last_bg_compacted then Obs.Attribution.Put_compaction_stall
         else Obs.Attribution.Put_flush_stall)
        stall
  end;
  let compactions_before =
    t.ctr.upper_compactions + t.ctr.last_compactions
  in
  let bg = Clock.create ~at:(Clock.now clock) () in
  Obs.Trace.begin_span bg ~tid:(bg_tid t.id) ~cat:"bg" label;
  f bg;
  Obs.Trace.end_span bg ~tid:(bg_tid t.id) ~cat:"bg" label;
  t.last_bg_compacted <-
    t.ctr.upper_compactions + t.ctr.last_compactions > compactions_before;
  t.bg_free_at <- Clock.now bg

(* {2 Flush (normal mode): Fig. 7 — persist the MemTable as an L0 table and
   mirror its entries into the ABI.} *)

let flush t clock =
  t.ctr.flushes <- t.ctr.flushes + 1;
  Obs.Counters.incr c_flushes;
  let entries = Memtable.entries t.memtable in
  (* the operation that triggered this flush has already appended its log
     entry but not yet inserted into the fresh MemTable: the recovery floor
     must stay below that entry *)
  let floor' = max t.mt_floor (Vlog.length t.vlog - 1) in
  with_background t clock ~label:"flush" (fun bg ->
      Fault_point.with_site Fault_point.Flush @@ fun () ->
      Vlog.flush t.vlog bg;
      (* record the structural change first: the manifest append must not
         queue behind this flush's own large writes *)
      (match t.manifest with
      | Some m -> Manifest.record_update m bg
      | None -> ());
      if t.cfg.Config.abi_enabled then
        ensure_abi_room t bg ~incoming:(List.length entries) ~can_dump:false;
      let tbl =
        build_table t bg ~slots:t.cfg.Config.memtable_slots entries
      in
      Obs.Counters.add_int c_flush_bytes (Linear_table.byte_size tbl);
      Levels.add_table t.lv ~level:0 tbl;
      (* mirror the flushed entries into the ABI (Fig. 7) *)
      if t.cfg.Config.abi_enabled then
        List.iter (fun (k, l) -> Flat_table.put_exn t.abi bg k l) entries;
      maybe_compact t bg;
      (* drain GPM dumps once compactions are allowed again *)
      if t.dumps <> [] then last_level_compact t bg;
      (* persist the recovery floors last: everything they stand for —
         the vlog batch, the L0 table, compaction results — is durable by
         now, so a crash tearing this very record in either direction is
         safe (old floor = replay more, new floor = exactly enough) *)
      match t.manifest with
      | Some m ->
        Manifest.set_floors m bg ~shard:t.id ~mt_floor:floor'
          ~absorb_floor:t.absorb_floor
      | None -> ());
  Memtable.reset t.memtable;
  t.mt_floor <- floor'

(* {2 Absorb (Write-Intensive Mode / active GPM): move the MemTable into the
   ABI without touching the LSM structure.} *)

let absorb t clock ~can_dump =
  t.ctr.absorbs <- t.ctr.absorbs + 1;
  Obs.Counters.incr c_absorbs;
  let entries = Memtable.entries t.memtable in
  if not (abi_has_room_for t (List.length entries)) then
    with_background t clock ~label:"abi-room" (fun bg ->
        ensure_abi_room t bg ~incoming:(List.length entries) ~can_dump);
  (* establish the floor only after the room check: a dump or compaction
     in there clears [absorb_floor], and setting it first would leave the
     entries inserted below covered by no floor at all — lost on crash.
     (Found by the crash checker; test_fault keeps the regression.) *)
  if t.absorb_floor = None then t.absorb_floor <- Some t.mt_floor;
  List.iter (fun (k, l) -> Flat_table.put_exn t.abi clock k l) entries;
  Memtable.reset t.memtable;
  t.mt_floor <- max t.mt_floor (Vlog.length t.vlog - 1)

let rec put t clock key loc ~suspend_compactions ~can_dump =
  let attr = Obs.Attribution.enabled () in
  let t0 = if attr then Clock.now clock else 0.0 in
  match Memtable.put t.memtable clock key loc with
  | `Ok ->
    if attr then
      Obs.Attribution.add Obs.Attribution.Put_index_insert
        (Clock.now clock -. t0)
  | `Full ->
    if attr then
      Obs.Attribution.add Obs.Attribution.Put_index_insert
        (Clock.now clock -. t0);
    if suspend_compactions then absorb t clock ~can_dump
    else flush t clock;
    put t clock key loc ~suspend_compactions ~can_dump

let force_flush t clock =
  if Memtable.count t.memtable > 0 then flush t clock
  else
    with_background t clock ~label:"vlog-flush" (fun bg ->
        Vlog.flush t.vlog bg)

(* {2 Get path.} *)

let resolve stage = function
  | Some loc when Types.is_corrupt loc ->
    (* a marker the index stores is containment already in place; a probe
       that itself failed verification keeps the Hit_corrupt stage *)
    (None, if stage = Hit_corrupt then Hit_corrupt else Hit_quarantined)
  | Some loc when Types.is_tombstone loc -> (None, stage)
  | Some loc -> (Some loc, stage)
  | None -> (None, Miss)

let probe_tables clock tables key =
  let rec go = function
    | [] -> Linear_table.Absent
    | tbl :: rest ->
      (match Linear_table.get tbl clock key with
      | Linear_table.Found loc -> Linear_table.Found loc
      | Linear_table.Absent -> go rest
      | Linear_table.Corrupted ->
        (* the key may live in the damaged block: fail closed rather than
           fall through to an older (stale) version *)
        Linear_table.Corrupted)
  in
  go tables

let probe_last t clock key =
  match Levels.last t.lv with
  | Some tbl ->
    (match Linear_table.get tbl clock key with
    | Linear_table.Found loc -> (Some loc, Hit_last)
    | Linear_table.Absent -> (None, Miss)
    | Linear_table.Corrupted -> (Some Types.corrupt_marker, Hit_corrupt))
  | None -> (None, Miss)

(* Degraded path (ABI still rebuilding after restart): consult every
   persistent table in recency order, like Pmem-LSM-NF would. *)
let degraded_lookup t clock key =
  let candidates =
    List.sort
      (fun a b -> compare (Linear_table.tag b) (Linear_table.tag a))
      (Levels.upper_tables_newest_first t.lv () @ t.dumps)
  in
  match probe_tables clock candidates key with
  | Linear_table.Found loc -> (Some loc, Hit_upper)
  | Linear_table.Corrupted -> (Some Types.corrupt_marker, Hit_corrupt)
  | Linear_table.Absent -> probe_last t clock key

(* Raw index lookup: the stored location, tombstones included.  Each probe
   stage's clock delta is attributed so the harness can decompose the get
   latency (memtable / ABI / persistent-level probes; the log read is
   charged separately by [Vlog.read]). *)
let lookup t clock key =
  let attr = Obs.Attribution.enabled () in
  let t0 = if attr then Clock.now clock else 0.0 in
  let mt = Memtable.get t.memtable clock key in
  if attr then
    Obs.Attribution.add Obs.Attribution.Get_memtable (Clock.now clock -. t0);
  match mt with
  | Some loc ->
    Obs.Counters.incr c_memtable_hits;
    (Some loc, Hit_memtable)
  | None ->
    if (not t.cfg.Config.abi_enabled) || Clock.now clock < t.abi_ready_at
    then begin
      let t1 = if attr then Clock.now clock else 0.0 in
      let r = degraded_lookup t clock key in
      if attr then
        Obs.Attribution.add Obs.Attribution.Get_level_probe
          (Clock.now clock -. t1);
      r
    end
    else begin
      let t1 = if attr then Clock.now clock else 0.0 in
      let hit = Flat_table.get t.abi clock key in
      if attr then
        Obs.Attribution.add Obs.Attribution.Get_abi (Clock.now clock -. t1);
      match hit with
      | Some loc ->
        Obs.Counters.incr c_abi_hits;
        (Some loc, Hit_abi)
      | None ->
        let t2 = if attr then Clock.now clock else 0.0 in
        match probe_tables clock t.dumps key with
        | Linear_table.Found loc ->
          if attr then
            Obs.Attribution.add Obs.Attribution.Get_level_probe
              (Clock.now clock -. t2);
          (Some loc, Hit_dump)
        | Linear_table.Corrupted ->
          if attr then
            Obs.Attribution.add Obs.Attribution.Get_level_probe
              (Clock.now clock -. t2);
          (Some Types.corrupt_marker, Hit_corrupt)
        | Linear_table.Absent ->
          if attr then
            Obs.Attribution.add Obs.Attribution.Get_level_probe
              (Clock.now clock -. t2);
          (* the last-level window gets its own stage when the run is
             MPH-indexed, so the experiment can read the one-device-read
             path straight off the attribution table *)
          let t3 = if attr then Clock.now clock else 0.0 in
          let mph_last =
            match Levels.last t.lv with
            | Some tbl -> Linear_table.is_mph tbl
            | None -> false
          in
          let r = probe_last t clock key in
          if attr then
            Obs.Attribution.add
              (if mph_last then Obs.Attribution.Get_mph
               else Obs.Attribution.Get_level_probe)
              (Clock.now clock -. t3);
          r
    end

let raw_lookup t clock key = fst (lookup t clock key)

let get t clock key =
  let loc, stage = lookup t clock key in
  resolve stage loc

(* Gradually merge GPM-dumped tables once the burst has subsided: runs on
   the background clock whenever it is idle, without blocking the caller
   (Section 2.4: "the dumped tables will gradually be merged with the last
   level table after the put burst subsides"). *)
let drain_dumps_if_idle t ~now =
  if t.dumps <> [] && t.bg_free_at <= now then begin
    let bg = Clock.create ~at:now () in
    Obs.Trace.begin_span bg ~tid:(bg_tid t.id) ~cat:"bg" "drain-dumps";
    last_level_compact t bg;
    Obs.Trace.end_span bg ~tid:(bg_tid t.id) ~cat:"bg" "drain-dumps";
    t.last_bg_compacted <- true;
    t.bg_free_at <- Clock.now bg
  end

(* {2 Crash and recovery.} *)

(* Crash: MemTable and ABI contents are lost; the log floors come back
   from the manifest's device-backed records — [absorb_floor] in
   particular, because it is exactly what tells recovery how far back to
   scan for the absorbed entries that no longer exist anywhere in DRAM.
   Floors are persisted lazily (at flush), so the recovered values may
   trail the in-DRAM ones; that only means replaying more of the log,
   which is idempotent.  Without a manifest (standalone shard tests) the
   DRAM floors are assumed recoverable, clamped to the persisted log. *)
let lose_volatile t =
  Memtable.reset t.memtable;
  t.abi <- make_abi t.cfg;
  t.bg_free_at <- 0.0;
  (match t.manifest with
  | Some m when Manifest.shards m > t.id ->
    let mt, ab = Manifest.floors m ~shard:t.id in
    t.mt_floor <- min mt (Vlog.persisted t.vlog);
    t.absorb_floor <-
      (match ab with Some f -> Some (min f t.mt_floor) | None -> None)
  | Some _ | None ->
    t.mt_floor <- min t.mt_floor (Vlog.persisted t.vlog);
    (match t.absorb_floor with
    | Some f -> t.absorb_floor <- Some (min f t.mt_floor)
    | None -> ()))

let rec replay t clock key loc =
  match Memtable.put t.memtable clock key loc with
  | `Ok -> ()
  | `Full ->
    if t.absorb_floor = None then t.absorb_floor <- Some t.mt_floor;
    let entries = Memtable.entries t.memtable in
    if not (abi_has_room_for t (List.length entries)) then
      last_level_compact t clock;
    List.iter (fun (k, l) -> Flat_table.put_exn t.abi clock k l) entries;
    Memtable.reset t.memtable;
    replay t clock key loc

(* Rebuild the ABI from the persistent upper tables (background, after
   restart).  Dumped tables participate in version resolution but only keys
   living in upper tables enter the ABI, preserving the pre-crash masking
   relationship between the ABI and the dumps. *)
let schedule_abi_rebuild t ~start_at =
  let bg = Clock.create ~at:(Float.max start_at t.bg_free_at) () in
  Obs.Trace.begin_span bg ~tid:(bg_tid t.id) ~cat:"bg" "abi-rebuild";
  let upper =
    if t.cfg.Config.abi_enabled then Levels.upper_tables_newest_first t.lv ()
    else []
  in
  if upper <> [] then begin
    let in_upper = Hashtbl.create 256 in
    List.iter
      (fun tbl -> Linear_table.iter tbl bg (fun k _ -> Hashtbl.replace in_upper k ()))
      upper;
    let ordered =
      List.sort
        (fun a b -> compare (Linear_table.tag b) (Linear_table.tag a))
        (upper @ t.dumps)
    in
    let seen = Hashtbl.create 256 in
    List.iter
      (fun tbl ->
        Linear_table.iter tbl bg (fun k loc ->
            if Hashtbl.mem in_upper k && not (Hashtbl.mem seen k) then begin
              Hashtbl.add seen k ();
              (* never clobber an entry the recovery replay already put in
                 the ABI: replayed log-tail versions are newer than any
                 table *)
              if Flat_table.get t.abi bg k = None then
                Flat_table.put_exn t.abi bg k loc
            end))
      ordered
  end;
  Obs.Trace.end_span bg ~tid:(bg_tid t.id) ~cat:"bg" "abi-rebuild";
  t.bg_free_at <- Clock.now bg;
  t.abi_ready_at <- Clock.now bg

(* Visit every entry reachable in this shard, newest structure first:
   MemTable, then ABI, then dumps and upper tables by recency, then the
   last level.  The caller deduplicates by key; tombstones are passed
   through so deletions can mask older versions. *)
let iter_newest_first t clock f =
  Flat_table.iter (Memtable.table t.memtable) f;
  if t.cfg.Config.abi_enabled then Flat_table.iter t.abi f;
  let tables =
    List.sort
      (fun a b -> compare (Linear_table.tag b) (Linear_table.tag a))
      (Levels.upper_tables_newest_first t.lv () @ t.dumps)
  in
  List.iter (fun tbl -> Linear_table.iter tbl clock f) tables;
  match Levels.last t.lv with
  | Some tbl -> Linear_table.iter tbl clock f
  | None -> ()

(* {2 Range scan.}

   One ordered stream per shard, sources listed newest first so the merge
   resolves versions exactly as [iter_newest_first] does: MemTable, ABI,
   dumps and upper tables by recency tag, last level.  The unordered DRAM
   and hashed-run sources are snapshotted and sorted up front (charged per
   entry visited plus the sort); only the sorted last level streams lazily
   through its cursor, so a short scan pays for the units it touches.
   Hashed runs are checksum-verified before their slots are trusted; a
   failing run makes its stream — and therefore the merge — fail-stop. *)

module Scan = Kv_common.Scan

let scan_stream t clock ~start =
  let snap iter = Scan.of_iter clock ~start iter in
  let run_source tbl =
    if Linear_table.intact tbl clock then
      snap (fun f -> Linear_table.iter tbl clock f)
    else fun () -> Scan.Error
  in
  let mem = snap (fun f -> Flat_table.iter (Memtable.table t.memtable) f) in
  let abi =
    if t.cfg.Config.abi_enabled then [ snap (fun f -> Flat_table.iter t.abi f) ]
    else []
  in
  let tables =
    List.sort
      (fun a b -> compare (Linear_table.tag b) (Linear_table.tag a))
      (Levels.upper_tables_newest_first t.lv () @ t.dumps)
  in
  let last =
    match Levels.last t.lv with
    | None -> []
    | Some tbl when Linear_table.is_sorted tbl ->
      [ Scan.of_cursor (Linear_table.cursor tbl clock ~start) ]
    | Some tbl -> [ run_source tbl ]
  in
  Scan.merge ((mem :: abi) @ List.map run_source tables @ last)

(* {2 Footprints and invariants.} *)

let dram_footprint t =
  Memtable.footprint_bytes t.memtable
  +. Flat_table.footprint_bytes t.abi
  +.
  match Levels.last t.lv with
  | Some tbl -> float_of_int (Linear_table.dram_bytes tbl)
  | None -> 0.0

let pmem_footprint t =
  float_of_int
    (Levels.pmem_bytes t.lv
    + List.fold_left (fun a tbl -> a + Linear_table.byte_size tbl) 0 t.dumps)

let check_invariants t =
  let cfg = t.cfg in
  let u = Config.upper_levels cfg in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let rec check_levels k =
    if k >= u then Ok ()
    else begin
      let len = Levels.level_len t.lv k in
      let cap = cfg.Config.ratio in
      if len > cap then err "level %d has %d tables (max %d)" k len cap
      else check_levels (k + 1)
    end
  in
  match check_levels 0 with
  | Error _ as e -> e
  | Ok () ->
    let lf = Memtable.load_factor_threshold t.memtable in
    if lf < cfg.Config.lf_min -. 1e-9 || lf > cfg.Config.lf_max +. 1e-9 then
      err "memtable load factor %.3f outside [%.2f, %.2f]" lf cfg.Config.lf_min
        cfg.Config.lf_max
    else begin
      (* every key in an upper-level table must be reachable without
         touching the upper levels: via the ABI, or — after a GPM dump
         cleared the ABI — via a dumped table *)
      let scratch = Clock.create () in
      let missing = ref None in
      if t.cfg.Config.abi_enabled then
        List.iter
          (fun tbl ->
            Linear_table.iter tbl scratch (fun k _ ->
                if
                  !missing = None
                  && Flat_table.get t.abi scratch k = None
                  && probe_tables scratch t.dumps k = Linear_table.Absent
                then missing := Some k))
          (Levels.upper_tables_newest_first t.lv ());
      match !missing with
      | Some k -> err "upper-level key %Ld missing from ABI and dumps" k
      | None -> Ok ()
    end
