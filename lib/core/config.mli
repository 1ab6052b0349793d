(** ChameleonDB configuration (Table 1 of the paper).

    The paper's deployment uses 16384 shards with 8 KB MemTables (128 MB
    total), 4 levels, a between-level ratio of 4, load factors randomized in
    [0.65, 0.85] and a 512 KB-per-shard ABI (8 GB total).  {!default} keeps
    every ratio but scales the shard count down so experiments with millions
    (rather than a billion) of keys exercise the same level dynamics. *)

type compaction_scheme =
  | Direct         (** multi-level Direct Compaction (Section 2.1, Fig. 5b) *)
  | Level_by_level (** classic two-adjacent-levels compaction (ablation) *)

type index_kind =
  | Probe (** sorted last-level run, fence search + slot probe (default) *)
  | Mph
      (** CompassDB-style minimal-perfect-hash last-level run: gets
          evaluate the MPH in DRAM and issue exactly one device read;
          construction rides on the merge (see [Kv_common.Mph]) *)

type t = {
  shards : int;           (** number of index shards *)
  memtable_slots : int;   (** slots per MemTable (16 B each; 512 = 8 KB) *)
  levels : int;           (** LSM levels including the last level *)
  ratio : int;            (** between-level ratio r *)
  lf_min : float;         (** randomized MemTable load-factor band, low *)
  lf_max : float;         (** randomized MemTable load-factor band, high *)
  abi_slots_factor : int; (** ABI slots = factor x memtable_slots *)
  compaction : compaction_scheme;
  write_intensive : bool; (** Write-Intensive Mode (Section 2.3) *)
  gpm_enabled : bool;     (** dynamic Get-Protect Mode (Section 2.4) *)
  gpm_threshold_ns : float; (** tail-latency trigger (2000 ns in Sec. 3.6) *)
  gpm_max_dumps : int;    (** ABIs dumpable as un-merged levels (default 1) *)
  vlog_batch_bytes : int; (** storage-log batch size (4 KB, Section 2.5) *)
  materialize_values : bool;
      (** retain value payloads so {!Store.read} can return them (default
          false: accounting-only log, memory-bounded for large benchmark
          sweeps) *)
  abi_enabled : bool;
      (** ablation switch: with the ABI disabled, gets walk the levels in
          the Pmem and last-level compactions read the upper tables from
          the device — i.e. the store degenerates to Pmem-LSM-NF *)
  cache_bytes : int;
      (** DRAM read-cache capacity in bytes, split across per-shard
          segments (0 = no cache, the default; the read path is then
          byte-for-byte the pre-cache one) *)
  scrub_budget_bytes : int;
      (** artifact bytes one {!Store.scrub} pass verifies by default
          (1 MiB); the scrubber stops scanning once the budget is spent *)
  index_kind : index_kind;
      (** last-level index structure (default [Probe]; [Mph] trades merge-
          time construction for one-device-read gets) *)
  seed : int;             (** randomized-load-factor seed *)
}

val default : t
(** 256 shards, 512-slot MemTables, 4 levels, r = 4, ABI factor 64 —
    the paper's ratios at 1/64 scale. *)

val abi_load_factor : float
(** Fill bound of each shard's ABI (0.90). *)

val scaled : ?shards:int -> ?memtable_slots:int -> t -> t
(** Convenience resizing that keeps everything else. *)

val upper_levels : t -> int
(** Levels above the last one ([levels - 1]). *)

val max_upper_entries : t -> int
(** Upper-bound on entries resident in the upper levels of one shard when
    the last-level compaction triggers: [r^(levels-1) x memtable_slots]
    slot-equivalents.  The ABI must be able to hold this. *)

val validate : t -> (unit, string) result
(** Check structural constraints (ABI big enough, ratios sane). *)
