(** Simulated byte-addressable persistent memory device.

    The device plays the role of one socket's interleaved Optane Pmem DIMMs
    in App Direct mode.  It provides:

    - a flat byte space with a bump allocator ({!alloc} / {!dealloc});
    - loads and stores ({!read_u64}, {!write_bytes}, ...) that charge
      simulated time to a {!Clock.t} according to the device {!Cost_model.profile};
    - explicit persistence ({!persist} = clwb/ntstore + sfence): a store is
      volatile (reverted by {!crash}) until the covering range is persisted;
    - media write-unit accounting: persisting a range smaller than (or
      misaligned to) the 256 B write unit charges a read-modify-write of
      whole units, which is exactly the write amplification the paper's
      Challenge 1 is about;
    - shared bandwidth servers: reads and writes queue on per-direction
      resources whose rate scales with {!set_active_threads}, so throughput
      saturation, iMC contention and compaction interference emerge from the
      simulation rather than being scripted.

    Accounting-only variants ({!charge_append}, {!charge_read_bytes}) charge
    time and traffic without materializing bytes; the value log uses them so
    that multi-GB experiments fit in memory (see DESIGN.md). *)

type t

type read_hint =
  | Random    (** independent cache-missing access *)
  | Adjacent  (** next slot within the line fetched by the previous access *)
  | Bulk      (** part of a large sequential transfer *)

val create : ?capacity:int -> Cost_model.profile -> t
(** [create profile] makes an empty device.  [capacity] (default 4 MiB) is
    the initial size of the materialized byte space; it grows on demand. *)

val profile : t -> Cost_model.profile
val stats : t -> Stats.t

val set_active_threads : t -> int -> unit
(** Number of threads driving the device; sets the bandwidth scaling point
    (default 1). *)

val active_threads : t -> int

(** {1 Allocation} *)

val alloc : t -> int -> int
(** [alloc t len] reserves [len] bytes aligned to the media write unit and
    returns the offset. *)

val dealloc : t -> off:int -> len:int -> unit
(** Returns space to the accounting (the simulator does not reuse it). *)

val used_bytes : t -> float
(** Live allocated bytes. *)

(** {1 Stores (volatile until persisted)} *)

val write_bytes : t -> Clock.t -> off:int -> bytes -> unit
val write_u64 : t -> Clock.t -> off:int -> int64 -> unit

val persist : t -> Clock.t -> off:int -> len:int -> unit
(** Flush the range to the media: charges media-unit-aligned bandwidth plus
    write latency, commits the covered stores (they now survive {!crash}),
    and charges RMW reads for partially covered edge units. *)

(** {1 Loads} *)

val read_u64 : t -> Clock.t -> off:int -> hint:read_hint -> int64
val read_bytes : t -> Clock.t -> off:int -> len:int -> hint:read_hint -> bytes

(** {1 Accounting-only traffic (value log)} *)

val charge_append : t -> Clock.t -> len:int -> unit
(** Persist [len] bytes appended contiguously to a stream: no RMW (the write-
    combining buffer merges unit boundaries of a contiguous stream), media
    bytes = [len] rounded up to the unit only at stream granularity. *)

val charge_write_random : t -> Clock.t -> len:int -> unit
(** Persist [len] bytes at an arbitrary (unaligned, isolated) location:
    worst-case unit rounding plus RMW reads, as for {!persist}. *)

val charge_write_at : t -> Clock.t -> off:int -> len:int -> unit
(** Persist [len] bytes at a specific offset, charging exactly the aligned
    span (and edge RMWs) that {!persist} would — without materializing the
    bytes.  The raw-device microbenchmark (Fig. 1) uses this. *)

val charge_read_bytes : t -> Clock.t -> len:int -> hint:read_hint -> unit

val quiesce_at : t -> float
(** Simulated time at which both bandwidth servers are free.  Experiment
    phases start measurement clocks past this point so that one phase's
    background backlog does not bleed into the next phase's latencies. *)

(** {1 Uncharged access} *)

val peek_u64 : t -> off:int -> int64
(** Read without charging time or traffic — for stores that hold a DRAM
    mirror of device-resident data (and for tests). *)

val peek_bytes : t -> off:int -> len:int -> bytes

val peek_crc32c : t -> off:int -> len:int -> int32
(** [peek_crc32c t ~off ~len] is
    [Crc32c.update Crc32c.empty (peek_bytes t ~off ~len) ~off:0 ~len],
    computed in place: no copy, no allocation beyond the result, no
    charge. *)

(** {1 Crash model} *)

val crash : t -> unit
(** Power failure: every store not yet covered by a {!persist} is reverted to
    its previous contents.  Bandwidth servers and allocation are unaffected
    (allocation metadata is assumed to be recoverable from the manifest).
    With a tear function installed ({!set_tear}), survival of unpersisted
    stores is instead decided per media write unit: the unit either reached
    the media before power failed (kept) or it did not (reverted). *)

val set_persist_hook : t -> (unit -> unit) option -> unit
(** Install a hook fired at the start of every persist-class operation
    ({!persist}, {!charge_append}, {!charge_write_random},
    {!charge_write_at}).  The fault injector uses it to count durable
    writes and to raise a crash exception just before the Nth one — at
    that point nothing the interrupted operation meant to persist is
    durable yet.  [None] uninstalls. *)

val set_tear : t -> (int -> bool) option -> unit
(** Install a torn-write decision function for the next {!crash}: given the
    unit-aligned offset of a media write unit holding unpersisted stores,
    return [true] to keep the new (unpersisted) bytes of that unit and
    [false] to revert them.  Decisions are memoised per unit within one
    crash.  [None] restores revert-everything semantics. *)

val tear : t -> (int -> bool) option
(** Currently installed tear function (the value log consults it so that a
    torn crash truncates its open batch at the same granularity). *)

val pending_ranges : t -> (int * int) list
(** Offsets and lengths of currently unpersisted stores (for tests). *)

(** {1 Media faults}

    Silent-corruption model, complementing the crash model: a {e poisoned}
    media write unit models an uncorrectable media error (any load touching
    it returns poison rather than data), and {!flip_bit} models bit rot that
    ECC missed (the load succeeds and returns wrong bytes — only a software
    checksum can catch it).  Poison is keyed by unit-aligned offset and does
    not require the range to be materialized, so accounting-only value-log
    addresses can be poisoned too.  Poison survives {!crash}; it is cleared
    by {!dealloc}, by an explicit {!clear_poison}, or by a persist that
    rewrites the whole unit (re-ECC on full-line write). *)

val inject_poison : t -> off:int -> len:int -> unit
(** Poison every media write unit intersecting [off, off+len). *)

val clear_poison : t -> off:int -> len:int -> unit

val poisoned_in : t -> off:int -> len:int -> bool
(** Does any poisoned unit intersect the range?  Read paths consult this to
    decide whether a load would have returned poison. *)

val flip_bit : t -> off:int -> bit:int -> unit
(** Flip bit [bit land 7] of the materialized byte at [off] — undetectable
    at the device level by design.  Raises [Invalid_argument] if [off] is
    outside the allocated byte space. *)
