(** The leveled LSM core shared by the NoveLSM and MatrixKV models
    (Section 3.7): a MemTable over the value log, an L0 list of flushed
    runs, one run per lower level L1..L3 (ratio 8, each rewritten whole by
    leveled compaction), per-run Bloom filters, and MemTable replay from
    the log after a crash.  All levels live in the Pmem and one background
    thread flushes and compacts, as in the paper's experiments.

    The two designs differ only in what {!DESIGN} supplies: the MemTable,
    how a flushed L0 run is built, and what locating a key inside a run
    costs once its filter (if any) has passed. *)

module type DESIGN = sig
  val name : string

  type memtable

  val memtable : Pmem_sim.Device.t -> cap:int -> memtable
  val count : memtable -> int

  val put :
    memtable -> Pmem_sim.Clock.t -> Kv_common.Types.key ->
    Kv_common.Types.loc -> [ `Ok | `Full ]
  (** [`Full] makes the core flush and retry. *)

  val get :
    memtable -> Pmem_sim.Clock.t -> Kv_common.Types.key ->
    Kv_common.Types.loc option

  val iter :
    memtable -> (Kv_common.Types.key -> Kv_common.Types.loc -> unit) -> unit
  (** Uncharged: the flush charges its own reads. *)

  val clear : memtable -> unit
  val footprint : memtable -> float  (** resident DRAM bytes *)

  val flush_run :
    Pmem_sim.Device.t -> Pmem_sim.Clock.t -> memtable ->
    (filter:bool -> Kv_common.Linear_table.t) -> Kv_common.Linear_table.t
  (** Turn the full MemTable into an L0 run: [build ~filter] sorts and
      writes its entries (plus a Bloom filter when [filter]); the design
      adds its own charges around that. *)

  val search :
    Pmem_sim.Clock.t -> level:int -> Kv_common.Linear_table.t -> unit
  (** Charge locating a key inside a run at [level] (0 = L0). *)
end

module Make (D : DESIGN) : sig
  type t

  val create : memtable_cap:int -> l0_runs:int -> t
  (** [l0_runs] flushed runs fill L0; a further flush compacts them all
      into L1. *)

  val store : t -> Kv_common.Store_intf.store
end
