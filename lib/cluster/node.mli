(** One cluster node: an unmodified store instance plus the DRAM
    replication metadata the cluster layer keeps about it — a per-key
    version map (for quorum reads and idempotent applies) and a vlog
    location -> stamp mirror (for the durable floor and catch-up
    streaming).  A node crash loses both; rejoin rebuilds them from the
    surviving persisted log prefix. *)

type status =
  | Up
  | Down     (** crashed; owns its vshards on paper but serves nothing *)
  | Syncing  (** recovered and accepting writes, not yet read-serving *)

type action = Put of int | Delete

type t

val create : id:int -> Kv_common.Store_intf.store -> t

val id : t -> int
val store : t -> Kv_common.Store_intf.store

val rx : t -> Pmem_sim.Clock.t
(** The node's serialized service loop — all request execution, catch-up
    serving and migration copy work charge here, so they compete. *)

val status : t -> status
val set_status : t -> status -> unit

val kills : t -> int
val restart_ns : t -> float

val version : t -> Kv_common.Types.key -> int option
(** Newest stamp applied for [key] ([None] if the node never saw it). *)

val iter_versions :
  t -> (Kv_common.Types.key -> int -> unit) -> unit
(** Iterate the per-key version map (order unspecified). *)

val stamp_at : t -> Kv_common.Types.loc -> int
(** Stamp recorded for a vlog location; -1 for non-cluster entries. *)

val apply :
  ?req_id:int ->
  t -> Pmem_sim.Clock.t -> stamp:int -> Kv_common.Types.key -> action -> bool
(** Apply a stamped mutation through the store's real write path.
    Returns [false] without charging when the node already holds this
    version or newer (idempotent replay for catch-up and dual-writes), or
    when [req_id] was already processed — the request-id dedup that makes
    duplicated deliveries and router retries apply exactly once.  The
    dedup table is DRAM session state (lost on {!kill}); the stamp
    comparison remains the durable idempotence guard. *)

val dedup_hits : t -> int
(** Deliveries skipped by the request-id dedup table (also counted as
    [node.dedup_hits]). *)

val apply_batch :
  t -> Pmem_sim.Clock.t ->
  (int * Kv_common.Types.key * action) list -> int
(** Apply a group of stamped [(stamp, key, action)] mutations in list
    order.  Runs of fresh puts commit through {!STORE.write_batch} — one
    persist fence where the store has one — with stamps mapped onto the
    group's log locations; deletes and stale entries keep the single-op
    {!apply} semantics.  Returns how many were actually applied. *)

val read :
  t -> Pmem_sim.Clock.t -> Kv_common.Types.key ->
  Kv_common.Store_intf.read_result

val forget : t -> Pmem_sim.Clock.t -> Kv_common.Types.key -> unit
(** Local, unstamped delete (migration source cleanup): removes the key
    from the store and the version map without minting a version, so the
    tombstone can never propagate through catch-up. *)

val kill : ?tear:bool -> seed:int -> t -> unit
(** Crash the node through {!Fault.Node.kill} (torn tail writes by
    default): status [Down], version map lost, stamp mirror truncated to
    the surviving persisted log prefix. *)

val durable_floor : t -> int
(** Highest stamp surviving in the node's persisted log (-1 if none) —
    the catch-up floor after a crash. *)

val rejoin : t -> Pmem_sim.Clock.t -> float
(** Recover the store ({!Fault.Node.rejoin}), rebuild the version map
    from the stamped log prefix, and enter [Syncing].  Returns the
    simulated restart time (ns). *)
