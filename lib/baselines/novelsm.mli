(** NoveLSM model (Kannan et al., ATC'18): a LevelDB-style leveled LSM tree
    whose mutable MemTable is a skiplist kept {e in the Pmem} (Section 3.7),
    on the {!Leveled} core.

    The model reproduces the paper's three attributed costs:
    - direct insertion of small KV items into an in-Pmem skiplist (sub-256 B
      writes -> write amplification, random Pmem reads on the get path);
    - leveled compaction at every level (high write amplification);
    - Bloom filters at {e all} levels plus comparison-based sorting during
      compaction (CPU bottleneck against Pmem bandwidth). *)

type t

val create : ?memtable_cap:int -> ?l0_runs:int -> unit -> t
(** Defaults: 8192-entry MemTable, 4 L0 runs. *)

val store : t -> Kv_common.Store_intf.store
