module Clock = Pmem_sim.Clock
module Device = Pmem_sim.Device
module Types = Kv_common.Types
module Vlog = Kv_common.Vlog
module Hash = Kv_common.Hash
module Fault_point = Kv_common.Fault_point
module Store_intf = Kv_common.Store_intf

let c_gc_relocations = Obs.Counters.counter "gc.relocations"
let c_gc_reclaimed = Obs.Counters.counter "gc.reclaimed_bytes"
let c_scrub_scanned_bytes = Obs.Counters.counter "scrub.scanned_bytes"
let c_scrub_scanned = Obs.Counters.counter "scrub.scanned_entries"
let c_scrub_detected = Obs.Counters.counter "scrub.detected"
let c_scrub_repaired = Obs.Counters.counter "scrub.repaired"
let c_quarantined = Obs.Counters.counter "scrub.quarantined"

type t = {
  cfg : Config.t;
  dev : Device.t;
  vlog : Vlog.t;
  shards : Shard.t array;
  gpm : Modes.Gpm.t;
  manifest : Manifest.t;
  cache : Cache.t option;
  health : Store_intf.health array; (* per shard *)
  mutable scrub_cursor : int; (* next log location the scrubber verifies *)
  mutable scrub_shard : int; (* first shard the next table pass covers *)
  mutable scrub_deficit : int; (* bytes the previous pass overshot by *)
  mutable nquarantined : int; (* lifetime quarantine events *)
}

let create ?(cfg = Config.default) ?dev () =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Chameleondb.Store.create: " ^ msg));
  let dev =
    match dev with
    | Some d -> d
    | None -> Device.create Pmem_sim.Cost_model.optane
  in
  let vlog =
    Vlog.create ~materialize:cfg.Config.materialize_values
      ~batch_bytes:cfg.Config.vlog_batch_bytes dev
  in
  let manifest = Manifest.create ~shards:cfg.Config.shards dev in
  let t =
    { cfg;
      dev;
      vlog;
      shards =
        Array.init cfg.Config.shards (fun id ->
            Shard.create ~manifest ~cfg ~id dev vlog);
      gpm = Modes.Gpm.create ~cfg;
      manifest;
      cache =
        (if cfg.Config.cache_bytes > 0 then
           Some
             (Cache.create ~shards:cfg.Config.shards
                ~capacity_bytes:cfg.Config.cache_bytes ())
         else None);
      health = Array.make cfg.Config.shards Store_intf.Healthy;
      scrub_cursor = 0;
      scrub_shard = 0;
      scrub_deficit = 0;
      nquarantined = 0 }
  in
  (* Shard-internal repair (value-log rebuilds) quarantines keys without
     going through the store: hook cache invalidation and accounting so a
     cached copy can never outlive its quarantine. *)
  Array.iter
    (fun shard ->
      Shard.set_notify_quarantine shard (fun key ->
          t.nquarantined <- t.nquarantined + 1;
          Obs.Counters.incr c_quarantined;
          match t.cache with
          | None -> ()
          | Some cache -> Cache.invalidate cache (Clock.create ()) key))
    t.shards;
  t

let cfg t = t.cfg
let shards t = t.shards
let device t = t.dev
let vlog t = t.vlog
let manifest t = t.manifest
let gpm t = t.gpm

let shard_index t key =
  Hash.shard_of ~hash:(Hash.mix64 key) ~shards:t.cfg.Config.shards

let shard_of t key = t.shards.(shard_index t key)

(* {2 Shard health.}  [Degraded] is set at detection (a read or GC pass
   that hits unverifiable state) and cleared by the scrub pass that repairs
   or contains the damage; [Scrubbing] marks shards a pass is covering. *)

let mark_degraded t key =
  t.health.(shard_index t key) <- Store_intf.Degraded

let shard_degraded t key =
  t.health.(shard_index t key) = Store_intf.Degraded

let degraded_fraction t =
  let n =
    Array.fold_left
      (fun a h -> if h = Store_intf.Degraded then a + 1 else a)
      0 t.health
  in
  float_of_int n /. float_of_int (Array.length t.health)

let health t =
  Array.fold_left
    (fun acc h ->
      match (acc, h) with
      | Store_intf.Degraded, _ | _, Store_intf.Degraded -> Store_intf.Degraded
      | Store_intf.Scrubbing, _ | _, Store_intf.Scrubbing ->
        Store_intf.Scrubbing
      | Store_intf.Healthy, Store_intf.Healthy -> Store_intf.Healthy)
    Store_intf.Healthy t.health

let signals t =
  { (Modes.Signals.of_gpm ~write_intensive:t.cfg.Config.write_intensive t.gpm)
    with
    Modes.Signals.shard_degraded = (fun key -> shard_degraded t key);
    degraded_fraction = (fun () -> degraded_fraction t) }

let suspend_compactions t =
  t.cfg.Config.abi_enabled
  && (t.cfg.Config.write_intensive || Modes.Gpm.active t.gpm)

(* dumping the ABI as an un-merged level is a Get-Protect-Mode action;
   Write-Intensive Mode merges a full ABI into the last level instead *)
let can_dump t = t.cfg.Config.abi_enabled && Modes.Gpm.active t.gpm

(* Every put/delete must drop any cached entry for the key in the same
   breath as the index insert, or a later cached read would serve a stale
   location.  The cost is attributed to the index-insert stage: the cache
   probe is index maintenance riding on the already-computed key hash. *)
let cache_invalidate ?(attributed = true) t clock key =
  match t.cache with
  | None -> ()
  | Some cache ->
    let attr = attributed && Obs.Attribution.enabled () in
    let t0 = if attr then Clock.now clock else 0.0 in
    Cache.invalidate cache clock key;
    if attr then
      Obs.Attribution.add Obs.Attribution.Put_index_insert
        (Clock.now clock -. t0)

(* {2 Range scan.}

   One ordered stream per shard (shadowing resolved inside the shard, see
   [Shard.scan_stream]), k-way merged into a single global stream — shard
   key sets are disjoint, so the cross-shard merge is a pure min-merge —
   then filtered to live entries and capped at [limit].  A shard stream
   that fail-stops (corrupt run) degrades that shard and truncates the
   scan at the damage: no fabricated results past it. *)
let scan t clock ~start ~limit =
  if limit < 0 then invalid_arg "Store.scan: negative limit";
  Obs.Trace.begin_span clock ~cat:"op" "scan";
  let attr = Obs.Attribution.enabled () in
  let t0 = if attr then Clock.now clock else 0.0 in
  let shard_stream i =
    let s = Shard.scan_stream t.shards.(i) clock ~start in
    fun () ->
      match s () with
      | Kv_common.Scan.Error ->
        t.health.(i) <- Store_intf.Degraded;
        Kv_common.Scan.Error
      | e -> e
  in
  let merged =
    Kv_common.Scan.merge
      (List.init (Array.length t.shards) shard_stream)
  in
  let entries, _status = Kv_common.Scan.take (Kv_common.Scan.live merged) ~limit in
  if attr then
    Obs.Attribution.add Obs.Attribution.Scan_stream (Clock.now clock -. t0);
  Obs.Trace.end_span clock ~cat:"op" "scan";
  entries

(* [Types.empty_key] marks free slots in every index table: a put of it
   would corrupt the table and a get of it could match an empty slot. *)
let check_key fn key =
  if Int64.equal key Types.empty_key then invalid_arg (fn ^ ": reserved key")

let write t clock key spec =
  check_key "Store.write" key;
  (match spec with
  | Store_intf.Sized vlen when vlen < 0 ->
    invalid_arg "Store.put: negative value length"
  | _ -> ());
  Obs.Trace.begin_span clock ~cat:"op" "put";
  let shard = shard_of t key in
  let loc =
    match spec with
    | Store_intf.Sized vlen -> Vlog.append t.vlog clock key ~vlen
    | Store_intf.Payload v -> Vlog.append_value t.vlog clock key v
  in
  cache_invalidate t clock key;
  Shard.put shard clock key loc ~suspend_compactions:(suspend_compactions t)
    ~can_dump:(can_dump t);
  Obs.Trace.end_span clock ~cat:"op" "put"

let delete t clock key =
  check_key "Store.delete" key;
  Obs.Trace.begin_span clock ~cat:"op" "delete";
  let shard = shard_of t key in
  let _loc = Vlog.append t.vlog clock key ~vlen:(-1) in
  cache_invalidate ~attributed:false t clock key;
  Shard.put shard clock key Types.tombstone
    ~suspend_compactions:(suspend_compactions t) ~can_dump:(can_dump t);
  Obs.Trace.end_span clock ~cat:"op" "delete"

let stage_of_hit : Shard.hit_stage -> Store_intf.read_stage = function
  | Shard.Hit_memtable -> Store_intf.Memtable
  | Shard.Hit_abi -> Store_intf.Abi
  | Shard.Hit_dump -> Store_intf.Dump
  | Shard.Hit_upper -> Store_intf.Upper
  | Shard.Hit_last -> Store_intf.Last
  | Shard.Miss -> Store_intf.Miss
  | Shard.Hit_corrupt | Shard.Hit_quarantined -> Store_intf.Corrupt

(* Quarantine a key whose newest log record failed verification: tombstone
   the index entry to the corrupt marker (reads answer an explicit error,
   never a silent miss or a stale version) and append a durable quarantine
   record — a header-only entry with vlen = corrupt_marker — so the
   containment survives crashes and GC passes.  The cache entry is dropped
   in the same breath: a cached copy must never outlive its quarantine. *)
let quarantine t clock key =
  match Shard.raw_lookup (shard_of t key) clock key with
  | Some cur when Types.is_corrupt cur ->
    (* already contained: a second marker record would double-count the
       same incident on every later scan of the rotted entry *)
    ()
  | _ ->
    ignore (Vlog.append t.vlog clock key ~vlen:Types.corrupt_marker);
    cache_invalidate ~attributed:false t clock key;
    Shard.put (shard_of t key) clock key Types.corrupt_marker
      ~suspend_compactions:(suspend_compactions t) ~can_dump:(can_dump t);
    t.nquarantined <- t.nquarantined + 1;
    Obs.Counters.incr c_quarantined

(* Index walk + log read, byte-for-byte the pre-cache get path: with the
   cache disabled this is the whole read, so [cache_bytes = 0] reproduces
   pre-cache latencies exactly. *)
let slow_read t clock key : Store_intf.read_result =
  let shard = shard_of t key in
  if not (Modes.Gpm.active t.gpm) then
    Shard.drain_dumps_if_idle shard ~now:(Clock.now clock);
  match Shard.get shard clock key with
  | None, Shard.Hit_corrupt ->
    mark_degraded t key;
    { loc = None; stage = Store_intf.Corrupt; value = None }
  | None, Shard.Hit_quarantined ->
    (* containment already in place: the read answers the explicit error
       but must NOT re-degrade the shard — that would send the scrubber
       rebuilding a shard whose damage is already contained, forever *)
    { loc = None; stage = Store_intf.Corrupt; value = None }
  | None, stage -> { loc = None; stage = stage_of_hit stage; value = None }
  | Some loc, stage -> (
    match Vlog.read_entry t.vlog clock loc with
    | Error `Corrupt ->
      (* detection on the read path: answer the explicit error and flag
         the shard; the scrub pass quarantines/repairs off the hot path *)
      mark_degraded t key;
      { loc = None; stage = Store_intf.Corrupt; value = None }
    | Ok (k, _vlen, value) ->
      if Int64.equal k key then
        { loc = Some loc; stage = stage_of_hit stage; value }
      else begin
        (* the record verifies but belongs to another key: the index entry
           itself is damaged — an explicit error, not a miss *)
        mark_degraded t key;
        { loc = None; stage = Store_intf.Corrupt; value = None }
      end)

let read t clock key : Store_intf.read_result =
  check_key "Store.read" key;
  Obs.Trace.begin_span clock ~cat:"op" "get";
  let t0 = Clock.now clock in
  let result =
    match t.cache with
    | None -> slow_read t clock key
    | Some cache -> begin
      let attr = Obs.Attribution.enabled () in
      let c0 = if attr then Clock.now clock else 0.0 in
      let outcome = Cache.find cache clock key in
      if attr then
        Obs.Attribution.add Obs.Attribution.Get_cache (Clock.now clock -. c0);
      match outcome with
      | Cache.Hit { loc; vlen = _; value } ->
        { Store_intf.loc = Some loc; stage = Store_intf.Cache; value }
      | Cache.Negative ->
        { Store_intf.loc = None; stage = Store_intf.Cache; value = None }
      | Cache.Miss ->
        let r = slow_read t clock key in
        let f0 = if attr then Clock.now clock else 0.0 in
        (match r.Store_intf.loc with
        | Some loc ->
          Cache.insert cache clock key ~loc
            ~vlen:(Vlog.vlen_at t.vlog loc)
            ?value:r.Store_intf.value ()
        | None when r.Store_intf.stage = Store_intf.Corrupt ->
          (* never cache a corrupt outcome: a negative entry would turn
             the explicit error into a silent miss *)
          ()
        | None -> Cache.insert_negative cache clock key);
        if attr then
          Obs.Attribution.add Obs.Attribution.Get_cache
            (Clock.now clock -. f0);
        r
    end
  in
  Modes.Gpm.record_get t.gpm (Clock.now clock -. t0);
  Obs.Trace.end_span clock ~cat:"op" "get";
  result

let flush_all t clock =
  Array.iter (fun shard -> Shard.force_flush shard clock) t.shards;
  Manifest.record_update t.manifest clock

let wait_background t clock =
  Array.iter
    (fun shard ->
      ignore (Clock.wait_until clock (Shard.background_free_at shard)))
    t.shards

let crash t =
  Device.crash t.dev;
  Vlog.crash t.vlog;
  Array.iter Shard.lose_volatile t.shards;
  (* the read cache is volatile: it must not survive into recovery, or a
     cached location could resurrect state the crash rolled back *)
  Option.iter Cache.clear t.cache;
  (* health marks and the scrub cursor are DRAM state; detection (on read,
     GC or replay) re-establishes them *)
  Array.fill t.health 0 (Array.length t.health) Store_intf.Healthy;
  t.scrub_cursor <- 0;
  t.scrub_shard <- 0;
  t.scrub_deficit <- 0

let recover t clock =
  Fault_point.with_site Fault_point.Recovery @@ fun () ->
  Obs.Trace.begin_span clock ~cat:"recovery" "recover";
  let t0 = Clock.now clock in
  let marks = Array.map Shard.persisted_mark t.shards in
  let lo = Array.fold_left min (Vlog.persisted t.vlog) marks in
  Vlog.iter_range t.vlog clock ~lo ~hi:(Vlog.persisted t.vlog)
    ~on_corrupt:(fun loc key _vlen ->
      (* a replayed record that fails verification: quarantine the
         (untrusted) key conservatively — served reads answer Corrupt
         until a scrub pass re-examines the shard *)
      let shard_ix = shard_index t key in
      if loc >= marks.(shard_ix) then begin
        Shard.replay t.shards.(shard_ix) clock key Types.corrupt_marker;
        t.health.(shard_ix) <- Store_intf.Degraded;
        t.nquarantined <- t.nquarantined + 1;
        Obs.Counters.incr c_quarantined
      end)
    (fun loc key vlen ->
      let shard_ix = shard_index t key in
      if loc >= marks.(shard_ix) then begin
        let index_loc =
          if vlen = Types.corrupt_marker then Types.corrupt_marker
          else if vlen < 0 then Types.tombstone
          else loc
        in
        Shard.replay t.shards.(shard_ix) clock key index_loc
      end);
  let restart_ns = Clock.now clock -. t0 in
  Obs.Trace.end_span clock ~cat:"recovery" "recover";
  (* ABI rebuild proceeds in the background after service resumes *)
  Array.iter
    (fun shard -> Shard.schedule_abi_rebuild shard ~start_at:(Clock.now clock))
    t.shards;
  restart_ns

(* {2 Value-log garbage collection.}

   The paper leaves log GC out of scope; this is the natural extension for
   a log-structured store.  A pass scans the oldest log entries: an entry is
   live iff the index still resolves its key to that exact location.  Live
   entries are copied to the log tail through the ordinary put path (so the
   copy is crash-consistent by construction: recovery simply replays it);
   dead entries — superseded versions, tombstone records already reflected
   in the persistent index — are dropped.  After the batch is flushed, the
   log head advances and the prefix is reclaimed. *)

type gc_stats = {
  gc_scanned : int;
  gc_live : int;
  gc_dead : int;
  gc_reclaimed_bytes : int;
}

let gc t clock ?(max_entries = 100_000) () =
  Fault_point.with_site Fault_point.Gc @@ fun () ->
  Obs.Trace.begin_span clock ~cat:"gc" "gc";
  (* flush the open batch so the scan limit can include the current tail *)
  Vlog.flush t.vlog clock;
  let head = Vlog.head t.vlog in
  let limit = min (Vlog.persisted t.vlog) (head + max_entries) in
  let scanned = ref 0 and live = ref 0 and dead = ref 0 in
  (* If a lookup runs into an unverifiable table block, liveness of the
     scanned prefix is unknowable: abort the pass without advancing the
     head (copies already made are merely duplicated, never lost) and let
     a scrub pass repair the shard first. *)
  let aborted = ref false in
  Vlog.iter_range t.vlog clock ~lo:head ~hi:limit
    ~on_corrupt:(fun loc key _vlen ->
      (* GC rewrite is a verification point: a corrupt record about to be
         reclaimed must leave a durable quarantine behind if the index
         still references it (the key is untrusted — conservative
         containment only) *)
      if not !aborted then begin
        incr scanned;
        let shard = shard_of t key in
        match Shard.lookup shard clock key with
        | _, Shard.Hit_corrupt ->
          mark_degraded t key;
          aborted := true
        | Some cur, _ when cur = loc ->
          incr live;
          quarantine t clock key
        | _ -> incr dead
      end)
    (fun loc key vlen ->
      if not !aborted then begin
        incr scanned;
        let shard = shard_of t key in
        match Shard.lookup shard clock key with
        | _, Shard.Hit_corrupt ->
          mark_degraded t key;
          aborted := true
        | Some cur, _ when cur = loc ->
          incr live;
          Obs.Counters.incr c_gc_relocations;
          let fresh = Vlog.copy_entry t.vlog clock loc in
          (* keep any cached entry pointing at the key's current version:
             the old location is about to be reclaimed *)
          Option.iter
            (fun cache ->
              Cache.relocate cache clock key ~expect:loc ~loc:fresh)
            t.cache;
          Shard.put shard clock key fresh
            ~suspend_compactions:(suspend_compactions t)
            ~can_dump:(can_dump t)
        | Some cur, _ when Types.is_corrupt cur && vlen = Types.corrupt_marker
          ->
          (* quarantine record for a still-quarantined key: it must
             survive the pass exactly like a live tombstone, or a crash
             would resurrect an older version *)
          incr live;
          Obs.Counters.incr c_gc_relocations;
          let _fresh =
            Vlog.append t.vlog clock key ~vlen:Types.corrupt_marker
          in
          Shard.put shard clock key Types.corrupt_marker
            ~suspend_compactions:(suspend_compactions t)
            ~can_dump:(can_dump t)
        | Some cur, _ when Types.is_tombstone cur && vlen < 0 ->
          (* the key is currently deleted and this is a deletion record:
             it must survive, or a crash could resurrect an older version
             still sitting in the persistent index *)
          incr live;
          Obs.Counters.incr c_gc_relocations;
          let _fresh = Vlog.append t.vlog clock key ~vlen:(-1) in
          Shard.put shard clock key Types.tombstone
            ~suspend_compactions:(suspend_compactions t)
            ~can_dump:(can_dump t)
        | (Some _ | None), _ -> incr dead
      end);
  (* the copies must be durable before the originals are reclaimed *)
  Vlog.flush t.vlog clock;
  let reclaimed =
    if !aborted then 0
    else begin
      let r = Vlog.bytes_upto t.vlog limit - Vlog.bytes_upto t.vlog head in
      Vlog.advance_head t.vlog limit;
      Manifest.record_update t.manifest clock;
      Obs.Counters.add_int c_gc_reclaimed r;
      r
    end
  in
  Obs.Trace.end_span clock ~cat:"gc" "gc";
  { gc_scanned = !scanned;
    gc_live = !live;
    gc_dead = !dead;
    gc_reclaimed_bytes = reclaimed }

(* {2 Background scrubber.}

   One pass verifies up to [budget_bytes] of durable artifacts, cheapest
   containment first:

   - manifest floor records (24 B each — always verified, repaired in
     place from the shard's in-DRAM floors);
   - table runs, whole-run checksum verification; a failing run flags the
     shard, which is then rebuilt from the value log (the log holds every
     live entry above its head, so it is a complete redundant copy of the
     index) — quarantining any log records that themselves turn out
     corrupt;
   - the value log, incrementally from a persistent cursor; a corrupt
     record that the index still references is quarantined (explicit
     Corrupt on read), a stale one is left for GC to reclaim.

   A shard marked [Degraded] by earlier detection is rebuilt outright.
   The budget is a target, not a hard cap: the pass stops after the
   artifact that crosses it, so one oversized run can overshoot.  The
   overshoot is carried as a deficit into the next pass (its target
   shrinks by the excess), so long-run scrub bandwidth converges to
   [budget_bytes] per pass even when single artifacts outweigh it.

   The table/floor/rebuild leg starts spending against at most half the
   budget and begins at a persistent shard rotor, so when the per-shard
   runs outweigh the budget, successive passes still cover every shard
   in turn; the value-log leg is then guaranteed the remaining slice
   regardless of how far the table leg overshot — neither leg can starve
   the other. *)

let scrub t clock ~budget_bytes : Store_intf.scrub_report =
  if budget_bytes <= 0 then invalid_arg "Store.scrub";
  Fault_point.with_site Fault_point.Scrub @@ fun () ->
  Obs.Trace.begin_span clock ~cat:"scrub" "scrub";
  (* the previous pass's overshoot shrinks this pass's target *)
  let target_bytes = max 1 (budget_bytes - t.scrub_deficit) in
  let spent = ref 0 in
  let scanned_entries = ref 0 in
  let detected = ref 0 and repaired = ref 0 in
  let q0 = t.nquarantined in
  let rebuild i =
    Shard.rebuild_from_vlog t.shards.(i) clock;
    incr repaired;
    (* the rebuild streamed the live log *)
    spent := !spent + Vlog.live_bytes t.vlog;
    t.health.(i) <- Store_intf.Scrubbing
  in
  let nshards = Array.length t.shards in
  let table_budget = max 1 (target_bytes / 2) in
  let next_start = ref t.scrub_shard in
  for k = 0 to nshards - 1 do
    let i = (t.scrub_shard + k) mod nshards in
    let shard = t.shards.(i) in
    if !spent < table_budget then begin
      next_start := (i + 1) mod nshards;
      if t.health.(i) = Store_intf.Healthy then
        t.health.(i) <- Store_intf.Scrubbing;
      (* floors: cheap enough to verify for every covered shard *)
      let _, flen = Manifest.floor_range t.manifest ~shard:i in
      incr scanned_entries;
      spent := !spent + flen;
      if not (Manifest.floor_intact t.manifest ~shard:i) then begin
        incr detected;
        let mt, ab = Shard.floors shard in
        if Manifest.repair_floor t.manifest clock ~shard:i ~mt_floor:mt
             ~absorb_floor:ab
        then incr repaired
      end;
      if t.health.(i) = Store_intf.Degraded then rebuild i
      else begin
        List.iter
          (fun tbl ->
            if !spent < table_budget then begin
              incr scanned_entries;
              spent := !spent + Kv_common.Linear_table.byte_size tbl;
              let slots_ok =
                Kv_common.Linear_table.slots_intact ~charge_read:true tbl
                  clock
              in
              let art_ok =
                Kv_common.Linear_table.mph_intact ~charge_read:true tbl
                  clock
              in
              if not (slots_ok && art_ok) then begin
                incr detected;
                if slots_ok then begin
                  (* MPH-artifact-only rot: the slot array still verifies,
                     so the index is re-serialized from its DRAM mirror
                     into a fresh allocation — one small write instead of
                     a full shard rebuild *)
                  Kv_common.Linear_table.rebuild_mph_artifact tbl clock;
                  incr repaired
                end
                else t.health.(i) <- Store_intf.Degraded
              end
            end)
          (Shard.persistent_tables shard);
        if t.health.(i) = Store_intf.Degraded && !spent < table_budget
        then rebuild i
      end
    end
  done;
  t.scrub_shard <- !next_start;
  (* the value log, incrementally from the cursor (wrapping at the tail) *)
  Vlog.flush t.vlog clock;
  let head = Vlog.head t.vlog in
  let hi = Vlog.persisted t.vlog in
  let cursor = ref (max t.scrub_cursor head) in
  if !cursor >= hi then cursor := head;
  (* the log leg is guaranteed its slice even when one shard's runs
     overshot the table leg past the whole budget — otherwise a store
     whose smallest run outweighs the budget never advances the cursor *)
  let vlog_budget = target_bytes - min !spent table_budget in
  let scan_bytes = ref 0 in
  while !scan_bytes < vlog_budget && !cursor < hi do
    let loc = !cursor in
    let bytes = Vlog.entry_bytes ~vlen:(Vlog.vlen_at t.vlog loc) in
    incr scanned_entries;
    spent := !spent + bytes;
    scan_bytes := !scan_bytes + bytes;
    if not (Vlog.intact t.vlog clock loc) then begin
      incr detected;
      (* untrusted key: only used to place conservative containment *)
      let key = Vlog.key_at t.vlog loc in
      match Shard.lookup (shard_of t key) clock key with
      | Some cur, _ when cur = loc -> quarantine t clock key
      | _, Shard.Hit_corrupt ->
        (* already quarantined (containment in place) — damaged runs are
           the table pass's job, so nothing more to do here *)
        ()
      | _ -> () (* stale record: nothing references it; GC reclaims it *)
    end;
    cursor := loc + 1
  done;
  (* one bulk read covers the scanned log slice *)
  if !scan_bytes > 0 then
    Device.charge_read_bytes t.dev clock ~len:!scan_bytes ~hint:Pmem_sim.Device.Bulk;
  t.scrub_cursor <- !cursor;
  t.scrub_deficit <- max 0 (!spent - target_bytes);
  (* shards this pass covered (and did not leave degraded) are healthy *)
  Array.iteri
    (fun i h ->
      if h = Store_intf.Scrubbing then t.health.(i) <- Store_intf.Healthy)
    t.health;
  let quarantined = t.nquarantined - q0 in
  Obs.Counters.add_int c_scrub_scanned_bytes !spent;
  Obs.Counters.add_int c_scrub_scanned !scanned_entries;
  Obs.Counters.add_int c_scrub_detected !detected;
  Obs.Counters.add_int c_scrub_repaired !repaired;
  Obs.Trace.end_span clock ~cat:"scrub" "scrub";
  { Store_intf.sr_scanned_bytes = !spent;
    sr_scanned_entries = !scanned_entries;
    sr_detected = !detected;
    sr_repaired = !repaired;
    sr_quarantined = quarantined }

(* {2 Full scan.} *)

let iter t clock f =
  (* newest-version-wins sweep over every structure, oldest tables masked
     by newer ones via a seen-set *)
  let seen = Hashtbl.create 4096 in
  let visit key loc =
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      (* tombstones and quarantine markers both mask older versions and
         carry no servable location *)
      if Types.is_live loc then f key loc
    end
  in
  Array.iter
    (fun shard ->
      Hashtbl.reset seen;
      Shard.iter_newest_first shard clock visit)
    t.shards

let cache_stats t =
  match t.cache with
  | None -> None
  | Some c -> Some (Cache.used_bytes c, Cache.capacity_bytes c)

let dram_footprint t =
  Array.fold_left (fun acc s -> acc +. Shard.dram_footprint s) 0.0 t.shards
  +. Vlog.dram_footprint t.vlog
  +. (match t.cache with Some c -> Cache.dram_footprint c | None -> 0.0)

let pmem_footprint t =
  Array.fold_left (fun acc s -> acc +. Shard.pmem_footprint s) 0.0 t.shards
  +. Manifest.footprint_bytes t.manifest

type totals = {
  flushes : int;
  upper_compactions : int;
  last_compactions : int;
  abi_dumps : int;
  absorbs : int;
  stall_ns : float;
  manifest_updates : int;
}

let totals t =
  let acc =
    { flushes = 0;
      upper_compactions = 0;
      last_compactions = 0;
      abi_dumps = 0;
      absorbs = 0;
      stall_ns = 0.0;
      manifest_updates = Manifest.updates t.manifest }
  in
  Array.fold_left
    (fun acc s ->
      let c = Shard.counters s in
      { acc with
        flushes = acc.flushes + c.Shard.flushes;
        upper_compactions = acc.upper_compactions + c.Shard.upper_compactions;
        last_compactions = acc.last_compactions + c.Shard.last_compactions;
        abi_dumps = acc.abi_dumps + c.Shard.abi_dumps;
        absorbs = acc.absorbs + c.Shard.absorbs;
        stall_ns = acc.stall_ns +. c.Shard.stall_ns })
    acc t.shards

let check_invariants t =
  let rec go i =
    if i >= Array.length t.shards then Ok ()
    else begin
      match Shard.check_invariants t.shards.(i) with
      | Ok () -> go (i + 1)
      | Error msg -> Error (Printf.sprintf "shard %d: %s" i msg)
    end
  in
  go 0

let store ?(name = "ChameleonDB") t : Kv_common.Store_intf.store =
  (module struct
    let name = name
    let write clock key spec = write t clock key spec

    (* ChameleonDB's vlog already coalesces appends into an open DRAM
       batch flushed at [vlog_batch_bytes]; forcing an extra fence per
       group here would only slow loads down. *)
    let write_batch = Kv_common.Store_intf.sequential_write_batch write

    let read clock key = read t clock key
    let delete clock key = delete t clock key
    let scan clock ~start ~limit = scan t clock ~start ~limit
    let flush clock = flush_all t clock
    let maintenance clock = ignore (gc t clock ())
    let crash () = crash t
    let recover clock = ignore (recover t clock)
    let check_invariants () = check_invariants t
    let scrub clock ~budget_bytes = scrub t clock ~budget_bytes
    let health () = health t
    let shard_degraded key = shard_degraded t key
    let dram_footprint () = dram_footprint t
    let pmem_footprint () = pmem_footprint t
    let device = t.dev
    let vlog = t.vlog

    let fault_points =
      Fault_point.
        [ Foreground; Flush; Last_level_merge; Gc; Manifest_update;
          Recovery; Scrub ]
      @ (match t.cfg.Config.compaction with
        | Config.Direct -> [ Fault_point.Direct_compaction ]
        | Config.Level_by_level -> [ Fault_point.Upper_compaction ])
      @
      if t.cfg.Config.gpm_enabled && t.cfg.Config.abi_enabled then
        [ Fault_point.Abi_dump ]
      else []
  end)

