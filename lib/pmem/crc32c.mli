(** CRC32C (Castagnoli) — per-record checksums for durable artifacts.

    Streaming API in zlib style: every function takes the running checksum
    and returns the extended one, so a record checksum can be folded over a
    header encoding plus a payload without materializing either.  Start from
    {!empty}.  The time cost is the caller's business: charge
    [Cost_model.crc_ns_per_byte] per covered byte on the relevant clock.

    The computation itself is allocation-free (slicing-by-8 over native
    ints); only [int32] values passed across a call boundary are boxed.
    Its host cost is separate from, and never feeds, the charged
    [crc_ns_per_byte]. *)

val empty : int32
(** Checksum of the empty string (the fold seed). *)

val bytes : ?crc:int32 -> bytes -> int32
(** [bytes ~crc b] extends [crc] (default {!empty}) with all of [b]. *)

val update : int32 -> bytes -> off:int -> len:int -> int32
(** Extend with a sub-range. *)

val int64 : int32 -> int64 -> int32
(** Extend with the 8 little-endian bytes of [v]. *)

val int : int32 -> int -> int32
(** [int crc v] = [int64 crc (Int64.of_int v)]. *)
