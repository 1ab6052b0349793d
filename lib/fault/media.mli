(** Seeded media-fault (silent corruption) sweep.

    Complements the crash {!Sweep}: instead of power failures it injects
    bit rot ([Vlog.corrupt_entry]) and poisoned media units
    ([Device.inject_poison]) into persisted value-log records and asserts
    that no store ever serves a corrupted record as a successful read —
    every fault surfaces as an explicit [Corrupt] (or the correct value),
    never wrong data and never a silent miss.  Stores that declare the
    [Scrub] fault site must additionally detect every injected log fault
    in one unbounded scrub pass and serve each victim again after a
    superseding write. *)

type verdict = {
  m_injected : int;       (** faults injected across all seeds *)
  m_corrupt_reads : int;  (** reads that answered an explicit [Corrupt] *)
  m_scrub_detected : int; (** scrub-pass detections (scrubbing stores) *)
  m_recovered : int;      (** victims serving again after a fresh write *)
  m_violations : string list;
}

val passed : verdict -> bool

val inject_log_fault :
  Kv_common.Vlog.t -> Pmem_sim.Device.t -> nth:int -> Kv_common.Types.loc ->
  unit
(** Corrupt the persisted log record at a location as the [nth] injected
    fault: even [nth] poisons the record's 256 B media units, odd [nth]
    flips a bit that only the record checksum catches. *)

val run_store :
  make:(unit -> Kv_common.Store_intf.store) ->
  ?seeds:int list -> ?ops:int -> ?universe:int -> ?faults:int -> unit ->
  verdict
(** Run the sweep: per seed, a put/delete workload over [universe] keys,
    [faults] injected corruptions into newest persisted records (poison
    and bit rot alternating), a full read sweep, and — for scrubbing
    stores — a scrub pass, a second read sweep and superseding writes. *)

val run_chameleon_artifacts : ?ops:int -> ?universe:int -> unit -> string list
(** ChameleonDB-specific artifact faults: a poisoned table run must fail
    probes closed and be rebuilt from the log by scrub; a poisoned
    manifest floor record must push recovery to its conservative full-log
    replay and then be repaired in place.  Returns violations (empty =
    pass). *)
