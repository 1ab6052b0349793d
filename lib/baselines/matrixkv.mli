(** MatrixKV model (Yao et al., ATC'20): a RocksDB-style leveled LSM tree
    whose L0 is a multi-sublevel "matrix container" in the Pmem
    (Section 3.7), on the {!Leveled} core.

    The model reproduces the costs the paper measures:
    - RowTable metadata written to the Pmem alongside every flushed sublevel
      (significant relative traffic for small values);
    - no Bloom filters at L0: gets check the sublevels one-by-one (cross-row
      hints spare the binary search, not the probe);
    - leveled compaction below L0 (high write amplification) with filters
      and comparison sorting (CPU cost). *)

type t

val create : ?memtable_cap:int -> ?l0_sublevels:int -> unit -> t
(** Defaults: 8192-entry DRAM MemTable, 8 L0 sublevels. *)

val store : t -> Kv_common.Store_intf.store
