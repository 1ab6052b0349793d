(** Shared key/value vocabulary.

    Keys are 8-byte integers (the paper evaluates with 8 B keys); the value
    payload lives in the storage log and indexes hold a location in that log.
    Key [0L] is reserved as the empty-slot sentinel of the open-addressing
    tables; {!Workload.Keyspace} never generates it. *)

type key = int64

type loc = int
(** Index of an entry in the value log. *)

val empty_key : key
(** [0L]; never a valid user key. *)

val tombstone : loc
(** Location value marking a deletion; negative, never a valid log index. *)

val corrupt_marker : loc
(** Location value marking a quarantined key: its newest log record failed
    integrity verification, so reads must answer an explicit corrupt error
    — not a miss, and not an older version.  Negative, distinct from
    {!tombstone}; like a tombstone it masks older versions in the level
    structure, but unlike one it is never dropped by merges (only a fresh
    put or delete of the key clears it). *)

val is_tombstone : loc -> bool
(** True exactly for {!tombstone} (corrupt markers are not tombstones). *)

val is_corrupt : loc -> bool

val is_live : loc -> bool
(** [loc >= 0]: an actual log location, neither tombstone nor quarantine. *)

val slot_bytes : int
(** Bytes per index slot: 8 B key + 8 B location, the 16 B index-entry size
    the paper uses when computing write amplification. *)

val key_compare : key -> key -> int
(** The canonical key order for range scans: unsigned 64-bit comparison.
    Every sorted structure (ordered last level, merge iterator, oracle,
    snapshot scans) must use this single order. *)

type op =
  | Put of key * int       (** insert/update with value length *)
  | Get of key
  | Delete of key
  | Read_modify_write of key * int
      (** YCSB F: get then put of the same key *)
  | Scan of key * int
      (** YCSB E: ordered range scan from a start key, inclusive, for a
          bounded number of live entries *)
