(** Shared plumbing for the cluster experiment family: build and preload
    an N-node cluster, then run the three reported scenarios — scaling
    curve, node kill + rejoin, live shard migration — each ending in the
    oracle divergence audit.  Used by the [cluster] and [chaos]
    experiments. *)

type setup = {
  router : Cluster.Router.t;
  orc : Cluster.Run.oracle;
  t0 : float;    (** preload finish time *)
  n_keys : int;  (** preloaded key universe *)
}

val build :
  Stores.scale -> n:int -> replicas:int -> wq:int -> rq:int ->
  ?vshards:int -> ?n_keys:int ->
  ?policy:Cluster.Router.policy -> ?rseed:int -> unit -> setup
(** [policy] defaults to {!Cluster.Router.default_policy}; [rseed] seeds
    the router's backoff jitter. *)

type scaling_point = {
  sp_nodes : int;
  sp_replicas : int;
  sp_ops : int;
  sp_sim_ns : float;
  sp_mops : float;
  sp_get_p99 : float;
  sp_put_p99 : float;
}

val scaling :
  seed:int -> ?get_frac:float -> Stores.scale -> int list ->
  scaling_point list
(** Closed-loop 90/10 throughput per node count (8 conns/node).  Each
    point runs its own fresh cluster and must pass the divergence audit
    (raises otherwise). *)

type scenario = {
  sc_label : string;
  sc_setup : setup;
  sc_probe_mops : float;  (** closed-loop capacity before the open phase *)
  sc_rate_mops : float;   (** offered open-loop rate (half of capacity) *)
  sc_start : float;       (** open-loop phase start *)
  sc_duration_ns : float;
  sc_result : Cluster.Run.result;
  sc_marks : (float * string) list;  (** timeline annotations *)
  sc_checked : int;
  sc_residue : int;
      (** replicas holding unacked-newer versions (loss runs only) *)
  sc_mismatches : Cluster.Run.mismatch list;
      (** replica-divergence mismatches followed by scan-audit mismatches
          ({!Cluster.Run.scan_divergence}); empty = both audits clean.
          With [loss] > 0 the partition-aware
          {!Cluster.Run.chaos_divergence} is used instead and the scan
          audit is skipped (a timed-out scan is legal under loss). *)
}

val victim : int
(** Node id the failover scenario kills. *)

val failover : seed:int -> ?loss:float -> Stores.scale -> scenario
(** 4 nodes, 2 replicas, write quorum 2: kill {!victim} at 30% of the
    open-loop phase (real crash, torn tail), rejoin at 55% with chunked
    catch-up competing with traffic.  [loss] > 0 runs the open phase
    under that i.i.d. frame-drop rate with the defensive router policy. *)

val rebalance : seed:int -> ?loss:float -> Stores.scale -> scenario
(** Same cluster shape: at 30% of the run, migrate the first vshard
    node 0 owns to a non-owner — dual-write, chunked copy, cutover
    (surfacing one [Not_owner] redirect), source cleanup. *)

(** {1 Chaos sweep}

    5 nodes, 2 replicas, write quorum 2 (spanning the replica set — the
    precondition for the partition-aware audits), defensive router
    policy.  Each cell probes a clean closed-loop capacity, then offers
    an open-loop 90/10 mix at half of it while the netem injector drops
    [loss] of all frames and cuts a scripted partition over [35%, 60%)
    of the phase: nodes 3 and 4 against the client plus nodes 0-2,
    symmetric or asymmetric (minority to majority dropped — the
    gray-failure shape: requests land, acks vanish). *)

type partition_kind = P_none | P_sym | P_asym

val partition_name : partition_kind -> string

type chaos_cell = {
  cc_label : string;
  cc_loss : float;
  cc_partition : partition_kind;
  cc_hedge : bool;
  cc_rate_mops : float;        (** offered open-loop rate *)
  cc_duration_ns : float;
  cc_issued : int;             (** single ops issued over the open phase *)
  cc_ok : int;                 (** of those, acked / answered OK *)
  cc_availability : float;
  cc_goodput_mops : float;
  cc_get_p99 : float;          (** whole open phase, OK gets *)
  cc_event_get_p99 : float;    (** inside the fault window, OK gets *)
  cc_event_availability : float;
  cc_retries : int;
  cc_timeouts : int;
  cc_hedges : int;
  cc_hedge_wins : int;
  cc_late_acks : int;
  cc_routed_around : int;
  cc_suspicions : int;
  cc_dedup_hits : int;         (** node-side request-id dedup skips *)
  cc_checked : int;            (** chaos-divergence replica checks *)
  cc_residue : int;            (** unacked-newer versions (legal) *)
  cc_mismatches : Cluster.Run.mismatch list;  (** must be empty *)
  cc_reads_checked : int;
  cc_violations : string list; (** must be empty (stale/phantom reads) *)
}

val cell_clean : chaos_cell -> bool
(** No acked-write loss and no history violations. *)

val chaos_cell :
  seed:int -> ?loss:float -> ?partition:partition_kind -> ?hedge:bool ->
  ?rate:float -> ?fail_slow:float -> Stores.scale -> chaos_cell
(** One cell.  [rate] pins the offered load (matched-pair comparisons);
    default is half the cell's own probed capacity.  [fail_slow] inflates
    node 1's service time by that factor over the fault window. *)

val chaos_sweep : seed:int -> Stores.scale -> chaos_cell list
(** The reported grid: loss in {0.001, 0.01} x {none, sym, asym}
    partition x hedge on/off. *)

val fail_slow_pair :
  seed:int -> ?factor:float -> Stores.scale -> chaos_cell * chaos_cell
(** (no-hedge cell, hedged cell) at the same pinned offered rate with
    node 1 serving [factor] slower over the fault window; the gate
    compares [cc_event_get_p99]. *)

val overhead_pair : seed:int -> Stores.scale -> float * float
(** Zero-fault closed-loop throughput: (default policy without injector,
    defensive policy with an empty injector attached).  Gate: within 5%.
    Raises on a divergence mismatch. *)
