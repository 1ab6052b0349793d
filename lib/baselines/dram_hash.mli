(** Dram-Hash baseline: a volatile robin-hood hash index over the
    persistent value log (Section 3.2).

    Best put/get throughput (no LSM maintenance, all index traffic in DRAM)
    at the price of the largest DRAM footprint and a restart that must scan
    the {e entire} log to rebuild the index — the design ChameleonDB's ABI
    borrows speed from while bounding both costs. *)

type t = { vlog : Kv_common.Vlog.t; mutable index : Kv_common.Robinhood.t }
(** Open so {!Hybrid_viper} can run the design over its own log and fence
    its deletes. *)

val create : unit -> t
val store : t -> Kv_common.Store_intf.store
