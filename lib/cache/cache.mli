(** Sharded DRAM read cache for the hot get path.

    The paper's central premise is that Optane random reads cost ~3x DRAM,
    so even a one-hop ABI hit still pays a Pmem log read for the value.
    This cache sits {e below the index} inside [Store.read]: it maps keys
    to their current log location, value length and (when the store
    materializes payloads) the value bytes, so a hit skips both the index
    probe and the Pmem log read entirely.

    Structure: one segment per store shard, selected with the store's own
    shard hash, so invalidation traffic stays on the same partition as the
    index write it rides along with.  Each segment is a CLOCK
    (second-chance) ring bounded by its byte-capacity share; entries charge
    a fixed overhead plus the value size, whether or not payload bytes are
    literally retained (the simulation synthesizes payloads from keys, but
    a real cache would hold them — the footprint must be honest).

    Coherence contract (enforced by [Store]): every index-moving event
    covers the cache — puts and deletes invalidate in-line, GC relocation
    rewrites cached locations via {!relocate}, and a crash {!clear}s the
    cache entirely (it is volatile).  Flushes, absorbs and compactions move
    index entries between structures but never change a key's log location,
    so they need no cache action.

    The cache also remembers {e misses} (negative caching): a
    repeated get of an absent key is answered from DRAM without walking the
    index.  Negative entries obey the same invalidation rules, so a
    re-inserted key is never masked.

    All operations charge simulated time to the supplied clock; the
    attribution of those charges to stages is the caller's business. *)

type t

type outcome =
  | Hit of { loc : Kv_common.Types.loc; vlen : int; value : bytes option }
      (** [value] is [Some] only when the entry was filled from a
          materialized read. *)
  | Negative  (** the key is cached as known-absent *)
  | Miss

val create : shards:int -> capacity_bytes:int -> unit -> t
(** [capacity_bytes] is split evenly across [shards] segments; it must be
    positive (a store with [cache_bytes = 0] simply constructs no cache).
    Raises [Invalid_argument] on a non-positive capacity or shard count. *)

val find : t -> Pmem_sim.Clock.t -> Kv_common.Types.key -> outcome
(** Probe the cache: charges a hash + one DRAM probe, plus a DRAM row read
    and payload copy on a positive hit.  Sets the CLOCK reference bit. *)

val insert :
  t -> Pmem_sim.Clock.t -> Kv_common.Types.key ->
  loc:Kv_common.Types.loc -> vlen:int -> ?value:bytes -> unit -> unit
(** Fill after a successful slow-path read.  Evicts via CLOCK until the
    entry fits its segment's share; an entry larger than the whole segment
    is not cached. *)

val insert_negative : t -> Pmem_sim.Clock.t -> Kv_common.Types.key -> unit
(** Fill after a slow-path miss. *)

val invalidate : t -> Pmem_sim.Clock.t -> Kv_common.Types.key -> unit
(** Drop any entry (positive or negative) for [key].  Called in-line by
    every put and delete. *)

val relocate :
  t -> Pmem_sim.Clock.t -> Kv_common.Types.key ->
  expect:Kv_common.Types.loc -> loc:Kv_common.Types.loc -> unit
(** GC relocation hook: if [key] is cached at exactly [expect], repoint it
    to [loc].  Any other state is left untouched. *)

val clear : t -> unit
(** Crash: the cache is volatile — drop everything.  Charges nothing (the
    power is off). *)

val used_bytes : t -> int
(** Charged bytes currently resident, across all segments. *)

val capacity_bytes : t -> int
(** Configured capacity (the sum of the per-segment shares). *)

val dram_footprint : t -> float
(** Resident DRAM bytes = {!used_bytes}; bounded by {!capacity_bytes}. *)

val entry_overhead_bytes : int
(** Per-entry metadata charge (key, location, length, ring bookkeeping). *)
