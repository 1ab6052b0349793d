(** ChameleonDB: the public key-value store API.

    A store is a set of hash-partitioned shards over a shared value log on
    one simulated Optane device.  All operations charge simulated time to
    the caller's clock; the experiment harness runs many clocks against one
    store to model threads.

    {[
      let dev = Pmem_sim.Device.create Pmem_sim.Cost_model.optane in
      let db = Store.create ~dev () in
      let clock = Pmem_sim.Clock.create () in
      Store.write db clock 42L (Kv_common.Store_intf.Sized 8);
      assert ((Store.read db clock 42L).Kv_common.Store_intf.loc <> None)
    ]} *)

type t

val create : ?cfg:Config.t -> ?dev:Pmem_sim.Device.t -> unit -> t
(** Build a store.  Raises [Invalid_argument] if the configuration fails
    {!Config.validate}. *)

val cfg : t -> Config.t

val shards : t -> Shard.t array
(** Read-only view of the shards, for tooling ([Report]) and tests. *)

val device : t -> Pmem_sim.Device.t
val vlog : t -> Kv_common.Vlog.t

val manifest : t -> Manifest.t
(** The structural-change manifest (exposed for the media-fault sweep and
    tests, which corrupt its floor records). *)

val write :
  t -> Pmem_sim.Clock.t -> Kv_common.Types.key ->
  Kv_common.Store_intf.value_spec -> unit
(** Append the value to the storage log, invalidate any cached entry, and
    index the key.  [Sized] charges for an accounting-only payload;
    [Payload] carries real bytes (retained when
    {!Config.t.materialize_values} is set — identical device traffic
    either way).  May trigger flushes and compactions whose cost lands on
    the shard's background clock; the write stalls only when it must wait
    for previous background work.  Raises [Invalid_argument] on a negative
    [Sized] length or on the reserved key {!Kv_common.Types.empty_key}
    (as do {!read} and {!delete}). *)

val read :
  t -> Pmem_sim.Clock.t -> Kv_common.Types.key ->
  Kv_common.Store_intf.read_result
(** The get path: DRAM read-cache probe first (when
    {!Config.t.cache_bytes} > 0), then index lookup plus a log read of the
    value on a hit.  The result carries the log location ([None] for
    absent or deleted keys), the answering structure, and the payload when
    the store materializes values.  Feeds the Get-Protect Mode latency
    monitor.  With the cache disabled the path is byte-for-byte the
    pre-cache one. *)

val scan :
  t -> Pmem_sim.Clock.t -> start:Kv_common.Types.key -> limit:int ->
  (Kv_common.Types.key * Kv_common.Types.loc) list
(** Ordered range scan: up to [limit] live entries with key [>= start] in
    ascending {!Kv_common.Types.key_compare} order, newest version of each
    key, tombstones and quarantined keys suppressed.  Built as a k-way
    merge of per-shard streams (MemTable/ABI/run snapshots plus a lazy
    cursor over the sorted last level).  A corrupt run fail-stops the
    scan at the damage and degrades the owning shard.  Raises
    [Invalid_argument] on a negative limit. *)

val delete : t -> Pmem_sim.Clock.t -> Kv_common.Types.key -> unit
(** Tombstone write: a header-only log entry plus an index tombstone. *)

val flush_all : t -> Pmem_sim.Clock.t -> unit
(** Flush every MemTable and the log batch (clean checkpoint). *)

val wait_background : t -> Pmem_sim.Clock.t -> unit
(** Advance the clock past all outstanding background compaction work. *)

val crash : t -> unit
(** Power failure: unpersisted device writes revert, the log's open batch
    is dropped, MemTables and ABIs are lost. *)

val recover : t -> Pmem_sim.Clock.t -> float
(** Replay the persisted log tail to rebuild MemTables (and absorbed ABIs);
    returns the simulated restart time (ns).  ABI rebuild from the upper
    tables then proceeds in the background; gets run degraded (multi-level)
    until it completes, as in Section 3.3. *)

val gpm : t -> Modes.Gpm.t

val signals : t -> Modes.Signals.t
(** Live mode signals for the serving layer's admission controller,
    including per-shard health probes. *)

(** {1 Integrity}

    Every durable artifact (log records, table runs, manifest floors)
    carries a CRC32C verified on read, replay and rewrite.  Detection
    marks the owning shard [Degraded]; the scrubber repairs (rebuilding
    damaged runs from the value log) or contains (quarantining keys whose
    newest log record is lost — reads answer an explicit [Corrupt], never
    wrong data and never a silent miss). *)

val scrub :
  t -> Pmem_sim.Clock.t -> budget_bytes:int ->
  Kv_common.Store_intf.scrub_report
(** One background integrity pass over up to [budget_bytes] of durable
    artifacts (the budget is a target: the pass stops after the artifact
    that crosses it, and the overshoot is carried as a deficit into the
    next pass so long-run scrub bandwidth converges to [budget_bytes] per
    pass).  Verifies manifest floors and table runs for as
    many shards as half the budget covers — round-robin from a persistent
    rotor, so successive passes cover every shard even when one shard's
    runs outweigh the budget — then spends the rest on a cursor-tracked
    slice of the value log; rebuilds shards with damaged runs from the
    log; quarantines unrepairable keys.  Raises [Invalid_argument] on a
    non-positive budget. *)

val quarantine : t -> Pmem_sim.Clock.t -> Kv_common.Types.key -> unit
(** Mark the key's index entry with the corrupt marker and append a
    durable quarantine record: subsequent reads answer [Corrupt] until a
    fresh write supersedes the key.  (Exposed for tests; normally driven
    by {!scrub} and GC.) *)

val health : t -> Kv_common.Store_intf.health
(** Worst health across the shards. *)

val shard_degraded : t -> Kv_common.Types.key -> bool
val degraded_fraction : t -> float

(** {1 Value-log garbage collection}

    An extension beyond the paper (which leaves log GC out of scope): a GC
    pass scans the oldest log prefix, copies still-live entries to the tail
    through the ordinary put path (crash-consistent by construction) and
    reclaims the prefix. *)

type gc_stats = {
  gc_scanned : int;           (** entries examined *)
  gc_live : int;              (** copied to the tail *)
  gc_dead : int;              (** superseded/deleted, dropped *)
  gc_reclaimed_bytes : int;   (** log bytes reclaimed *)
}

val gc : t -> Pmem_sim.Clock.t -> ?max_entries:int -> unit -> gc_stats
(** Run one GC pass over up to [max_entries] (default
    100k) of the oldest live log prefix.  Live
    entries a pass relocates keep any cached read-cache entry pointing at
    the key's current location. *)

val cache_stats : t -> (int * int) option
(** [(used_bytes, capacity_bytes)] of the DRAM read cache, or [None] when
    the cache is disabled. *)

val iter :
  t -> Pmem_sim.Clock.t ->
  (Kv_common.Types.key -> Kv_common.Types.loc -> unit) -> unit
(** Full scan: apply [f] to every live key exactly once, with its current
    log location (deleted keys are skipped).  Order is unspecified. *)

val dram_footprint : t -> float
val pmem_footprint : t -> float

type totals = {
  flushes : int;
  upper_compactions : int;
  last_compactions : int;
  abi_dumps : int;
  absorbs : int;
  stall_ns : float;
  manifest_updates : int;
}

val totals : t -> totals
(** Aggregated shard counters. *)

val check_invariants : t -> (unit, string) result

val store : ?name:string -> t -> Kv_common.Store_intf.store
(** First-class store for the harness and the fault checker.
    [maintenance] runs one {!gc} pass; [fault_points] reflects the
    configuration (compaction flavour, GPM). *)
