(** Seeded message-level network fault injection.

    Every router<->node and node<->node exchange in the cluster layer asks
    this module what happens to each frame: delivered once after the base
    hop cost, delivered late, delivered more than once, or not at all.
    Faults are scripted as time-windowed rules — per-link loss, delay,
    duplication and reordering distributions, symmetric and asymmetric
    partitions, and fail-slow nodes whose service times inflate by a
    factor — and all randomness comes from one splitmix64 stream, so a
    run is deterministic per seed under the discrete-event clock.

    The injector is pure policy: it decides arrival times and factors but
    never touches a clock itself.  Callers (the router's RPC layer,
    catch-up streaming, migration copy) charge the costs it dictates. *)

type endpoint =
  | Client       (** the router's client side *)
  | Node of int  (** a cluster node, by id *)

type fault =
  | Loss of float
      (** i.i.d. drop probability per frame *)
  | Delay of { frac : float; mean_ns : float }
      (** with probability [frac], add an exponentially distributed extra
          delay with the given mean *)
  | Duplicate of float
      (** probability that a frame is delivered twice *)
  | Reorder of { frac : float; extra_ns : float }
      (** with probability [frac], hold a frame back by [extra_ns] — long
          enough that later frames overtake it *)
  | Partition of { a : endpoint list; b : endpoint list; symmetric : bool }
      (** drop every frame from side [a] to side [b]; symmetric
          partitions drop [b] to [a] too, asymmetric ones deliver it (the
          gray-failure shape: requests arrive, acks vanish).  Endpoints
          on neither side are unaffected. *)
  | Fail_slow of { node : int; factor : float }
      (** inflate the node's service time by [factor] (>= 1.0) *)

type t

val create : ?seed:int -> unit -> t
(** A fresh injector with no rules: every frame is delivered exactly
    once after the base hop cost. *)

val add_rule :
  t ->
  ?from_ns:float -> ?until_ns:float ->
  ?src:endpoint -> ?dst:endpoint ->
  fault -> unit
(** Install a rule active on frames sent in [\[from_ns, until_ns)]
    (default: always) whose source/destination match the optional
    filters (default: any).  [src]/[dst] filters are ignored by
    [Partition] and [Fail_slow], which carry their own scope.  Rules
    apply in installation order; their effects compose. *)

val send :
  t -> now:float -> src:endpoint -> dst:endpoint -> net_ns:float ->
  float list
(** Fate of one frame departing [src] at [now] toward [dst] over a hop
    of base cost [net_ns]: the ascending list of arrival times — [[]]
    when the frame is lost or crosses an active partition cut, more than
    one entry when it is duplicated.  Consumes randomness; draws are in
    rule order, so call order is part of the deterministic schedule. *)

val reachable : t -> now:float -> src:endpoint -> dst:endpoint -> bool
(** Whether an active partition cuts [src -> dst] at [now].  Pure (no
    randomness consumed): loss/delay rules do not make a link
    unreachable.  Catch-up and migration streams use this to gate
    progress. *)

val slow_factor : t -> now:float -> node:int -> float
(** Service-time inflation factor for [node] at [now] (largest active
    [Fail_slow] rule; 1.0 when none). *)

(** {1 Stats} (also mirrored in [Obs.Counters] under [netem.*]) *)

val sent : t -> int
val dropped : t -> int
(** Frames lost to [Loss] rules. *)

val partition_dropped : t -> int
(** Frames lost to partition cuts. *)

val duplicated : t -> int
(** Extra deliveries created by [Duplicate] rules. *)

val delayed : t -> int
(** Deliveries that left later than the base hop cost. *)
