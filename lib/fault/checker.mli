(** Crash-consistency checker.

    Drives a store and an in-DRAM oracle through a randomized, seeded
    workload; on an injected crash it recovers the store, prunes the oracle
    at the post-crash [Vlog.persisted] watermark, and verifies:

    - no acknowledged put whose log record persisted is lost;
    - no deleted key is resurrected;
    - [check_invariants] holds after recovery;
    - the store keeps serving a further workload consistently;
    - optionally, recovery itself is idempotent when crashed partway.

    The single operation interrupted mid-flight by the crash is ambiguous
    (its record may or may not have reached the persisted prefix) and is
    exempt from checks until a later completed write resolves it.

    A crash inside a grouped write ([write_batch]) leaves each key of
    the group ambiguous for the state sweep, but additionally asserts
    the batched-ack order directly: among the group's fresh keys,
    post-recovery survivors must form a prefix of the group — a store
    that keeps a middle op while losing its predecessor fails. *)

type outcome = {
  store_name : string;
  seed : int;
  crashed : bool;  (** the armed crash actually fired *)
  crash_site : Kv_common.Fault_point.site option;
  crash_step : int;  (** workload step during which the crash fired *)
  recovery_crashed : bool;
      (** a second crash was injected during recovery and survived *)
  violations : string list;  (** empty = the case passed *)
}

val run_case :
  make:(unit -> Kv_common.Store_intf.store) ->
  ?ops:int ->
  ?universe:int ->
  ?crash_site:Kv_common.Fault_point.site ->
  ?crash_after:int ->
  ?recovery_crash_after:int ->
  seed:int ->
  unit ->
  outcome
(** One checker case.  [crash_site] restricts the crash to a fault-point
    site; [crash_after] skips that many matching persist events first (so
    [crash_after:0] crashes at the site's first durable write).  With
    neither, the run is a clean oracle-validated workload.
    [recovery_crash_after] additionally crashes recovery at its n-th
    persist event and recovers again.  Each crash tears writes: every 256 B
    unit of unpersisted data survives it independently.  After a crash,
    [ops / 4] further operations check that the store keeps serving.
    Everything is deterministic in [seed]. *)

val profile :
  make:(unit -> Kv_common.Store_intf.store) ->
  ?ops:int ->
  ?universe:int ->
  seed:int ->
  unit ->
  (Kv_common.Fault_point.site * int) list
(** Persist-event counts per site for the identical (crash-free) workload —
    the enumeration of available crash points for [run_case]. *)
