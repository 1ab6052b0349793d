(** Pmem-Hash baseline: CCEH persistent hash table over a per-operation-
    persisted value log (Section 3.2).

    Every put performs in-place sub-256 B writes (log entry and 16 B index
    slot, each individually fenced), so the media write amplification is
    large and put throughput is the worst in the comparison; recovery, in
    exchange, only rebuilds the small DRAM directory. *)

type t

val create : unit -> t
val store : t -> Kv_common.Store_intf.store
