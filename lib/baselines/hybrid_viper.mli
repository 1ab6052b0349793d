(** Hybrid-Viper baseline (Benson et al., VLDB 2021): {!Dram_hash} with
    every put and delete fenced before its index update and ack, and one
    fence per group commit. *)

type t

val create : unit -> t
val store : t -> Kv_common.Store_intf.store
