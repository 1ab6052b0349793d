(** Request router: the client-facing front of the cluster.  Routes
    {!Service.Proto} requests to the owners of each key's vshard,
    assigns global version stamps from a sequencer, applies writes to
    every live owner and acks at [write_quorum], probes [read_quorum]
    replicas and answers from the freshest.  A per-vshard route cache is
    deliberately not refreshed at migration cutover, so stale routing
    surfaces as one counted [Not_owner] redirect round-trip — never as
    an answer from a non-owner.

    Every router<->node exchange goes through one RPC primitive that
    consults an optional {!Fault.Netem} injector: frames can be dropped,
    delayed, duplicated, reordered or cut by partitions, and fail-slow
    nodes inflate their service episodes.  Under the {!defensive}
    policy every attempt carries a deadline, writes retry idempotently
    with exponential backoff + jitter (nodes dedup by request id, so a
    write acked after k retries applied exactly once), reads hedge to
    another [Up] replica after a p99-based delay, and a per-node accrual
    {!Detector} steers reads away from suspected replicas.  Under
    {!default_policy} the path is cost-identical to the pre-netem
    router: one delivery per frame, no deadline, no retries. *)

type costs = {
  byte_ns : float;   (** per-byte frame handling cost at a node *)
  frame_ns : float;  (** fixed per-frame handling cost at a node *)
  net_ns : float;    (** one-way network hop *)
}

val default_costs : costs

type policy = {
  deadline_ns : float;
      (** per-attempt ack deadline; [infinity] = wait forever *)
  max_retries : int;      (** extra attempts after the first *)
  backoff_ns : float;     (** base backoff before retry k is [2^k] of this *)
  backoff_jitter : float; (** uniform +/- fraction applied to each backoff *)
  hedge : bool;           (** duplicate slow reads to a spare replica *)
  hedge_floor_ns : float;
      (** lower bound on the hedge delay, so a cold detector cannot
          hedge every read *)
  route_around : bool;
      (** prefer unsuspected replicas when picking read targets *)
}

val default_policy : policy
(** Infinite deadline, no retries, no hedging — the zero-fault fast path
    is cost-identical to the pre-netem router. *)

val defensive : policy
(** 500 us deadline, 4 retries with 100 us exponential backoff and 0.5
    jitter, hedging with an 8 us floor, route-around on. *)

type t

val create :
  ?costs:costs -> ?policy:policy -> ?netem:Fault.Netem.t -> ?seed:int ->
  write_quorum:int -> read_quorum:int ->
  Ring.t -> Node.t array -> t
(** Raises [Invalid_argument] when a quorum is outside [1, replicas] or
    node ids do not index the array.  [seed] drives backoff jitter. *)

val ring : t -> Ring.t
val nodes : t -> Node.t array
val node : t -> int -> Node.t
val write_quorum : t -> int
val read_quorum : t -> int
val policy : t -> policy

val detector : t -> Detector.t
(** The per-node accrual failure detector the RPC layer feeds. *)

val netem : t -> Fault.Netem.t option

val set_netem : t -> Fault.Netem.t option -> unit
(** Attach or detach the fault injector.  Audits detach it so their
    probe traffic sees a perfect network. *)

val add_dual : t -> vshard:int -> int -> unit
(** Register an extra write target for a vshard (migration dual-write).
    Dual targets receive every write but do not count toward the write
    quorum. *)

val remove_dual : t -> vshard:int -> int -> unit

(** {1 Stats} *)

val ops : t -> int
val redirects : t -> int

val quorum_failures : t -> int
(** Writes refused (and applied nowhere) for lack of a live quorum. *)

val unavailable : t -> int
(** Reads refused because no owner was [Up] or no probe answered within
    its retry budget, plus scans refused because some vshard had no [Up]
    owner or a node never answered (a partial scan would be a silent
    gap). *)

val misrouted : t -> int
(** Requests executed by a non-owner — must stay 0; counted so the
    migration experiment can assert it. *)

val replica_applies : t -> int
val degraded_reads : t -> int

val scans : t -> int
(** [Scan] requests fanned out across the nodes (including refused
    ones — see {!unavailable}). *)

val retries : t -> int
(** Retry rounds taken after timed-out attempts (also counted as
    [router.retries]). *)

val timeouts : t -> int
(** RPC attempts that missed their deadline ([router.rpc_timeouts]). *)

val hedges : t -> int
(** Reads duplicated to a spare replica ([router.hedges]). *)

val hedge_wins : t -> int
(** Hedged reads where the spare acked first ([router.hedge_wins]). *)

val late_acks : t -> int
(** Acks that arrived after the client gave up ([router.late_acks]) —
    the work itself still completed on the node. *)

val routed_around : t -> int
(** Suspected replicas skipped when picking read targets
    ([router.routed_around]). *)

type outcome = {
  reply : Service.Proto.reply;
  finish : float;  (** client-side completion time *)
  acked : (Kv_common.Types.key * int * Node.action) list;
      (** quorum-acked mutations with their stamps, for the oracle *)
  stamp : int;
      (** write: the minted stamp, even when the attempt timed out
          unacked (the history audit's issued-stamp bound needs it);
          read: the answering replica's version; -1 when nothing was
          minted or observed *)
}

val submit_write :
  ?req_id:int -> ?deadline:float ->
  t -> at:float -> bytes:int -> Kv_common.Types.key -> Node.action -> outcome

val submit_read :
  ?deadline:float ->
  t -> at:float -> bytes:int -> Kv_common.Types.key -> outcome

val call :
  ?hdr:Service.Proto.hdr ->
  t -> at:float -> bytes:int -> Service.Proto.req -> outcome
(** The one typed entry point: route any {!Service.Proto.req} — including
    [Batch] frames, whose inner ops route individually and fold — and
    return its outcome.  [bytes] is the encoded frame size, charged at
    each contacted node.  An [hdr] envelope supplies the request id
    (single writes only: batch inner ops mint their own ids, since
    sharing one across keys would dedup sibling ops) and a deadline
    override.  Scans fan out to every [Up] node; the replies are
    reconciled per key (freshest owner replica by version stamp, ties to
    the lower node id, non-owner leftovers discarded) and merged in key
    order through {!Kv_common.Scan}, answering [Values] with
    (key, vlen, None) entries — refused as [Err "unavailable"] when any
    vshard has no [Up] owner, since a partial scan would be
    indistinguishable from a complete one. *)
