(* Request router: the client-facing front of the cluster.

   Speaks the existing [Service.Proto] messages, routes each op to the
   owners of its key's vshard, and enforces quorum semantics:

   - Writes take a fresh stamp from a global sequencer and are applied to
     every live owner (plus any migration dual-write targets); the client
     is acked when the [write_quorum]-th owner's apply completes.  Fewer
     live owners than the quorum fails the write without applying it
     anywhere (fail-fast, so a failed write never leaves partial state
     the oracle cannot predict).

   - Reads probe the first [read_quorum] [Up] owners in preference order
     and answer from the replica holding the highest version stamp, at
     the time the slowest probe returns — freshness is decided by stamp
     comparison, not by which replica happens to answer first.

   Every router<->node exchange goes through one RPC primitive that asks
   the optional [Fault.Netem] injector what happens to each frame.  Under
   the default policy the path is exactly the perfect-network one (one
   delivery per frame after [net_ns], no deadline); under a defensive
   [policy] every attempt carries a deadline, writes retry idempotently
   with exponential backoff + jitter (nodes dedup by request id), reads
   hedge to another [Up] replica after a p99-based delay, and a per-node
   accrual failure detector ({!Detector}) steers reads away from
   suspected (partitioned or fail-slow) replicas.

   The router keeps a per-vshard route cache that is deliberately NOT
   refreshed at migration cutover: the first request after cutover goes
   to the old owner, which refuses with [Not_owner] (the node-side
   ownership check), and the router re-resolves and retries.  Stale
   routing therefore costs one observable redirect round-trip and is
   counted — it can never be served by a non-owner. *)

module Clock = Pmem_sim.Clock
module Proto = Service.Proto
module Netem = Fault.Netem
module Rng = Workload.Rng
module Types = Kv_common.Types

type costs = { byte_ns : float; frame_ns : float; net_ns : float }

(* one-way network hop ~1.5 us: same order as the service layer's frame
   costs, big enough that a redirect round-trip is visible in p99 *)
let default_costs = { byte_ns = 0.25; frame_ns = 120.0; net_ns = 1500.0 }

type policy = {
  deadline_ns : float;
  max_retries : int;
  backoff_ns : float;
  backoff_jitter : float;
  hedge : bool;
  hedge_floor_ns : float;
  route_around : bool;
}

(* PR-9 semantics: wait forever, never retry, never hedge — the
   zero-fault fast path is cost-identical to the pre-netem router *)
let default_policy =
  { deadline_ns = infinity;
    max_retries = 0;
    backoff_ns = 0.0;
    backoff_jitter = 0.0;
    hedge = false;
    hedge_floor_ns = 0.0;
    route_around = false }

(* deadline ~300x the healthy round trip, so only loss and partitions
   trip it; hedge floor just above the healthy round trip *)
let defensive =
  { deadline_ns = 500_000.0;
    max_retries = 4;
    backoff_ns = 100_000.0;
    backoff_jitter = 0.5;
    hedge = true;
    hedge_floor_ns = 8_000.0;
    route_around = true }

type t = {
  ring : Ring.t;
  nodes : Node.t array; (* indexed by node id *)
  write_quorum : int;
  read_quorum : int;
  costs : costs;
  policy : policy;
  mutable netem : Netem.t option;
  detector : Detector.t;
  rng : Rng.t; (* backoff jitter *)
  mutable stamp : int; (* global version sequencer *)
  mutable next_req_id : int;
  route_cache : int list option array; (* vshard -> cached owners *)
  dual : int list array; (* vshard -> extra write targets *)
  (* stats *)
  mutable ops : int;
  mutable gets : int;
  mutable writes : int;
  mutable redirects : int;
  mutable quorum_failures : int;
  mutable unavailable : int;
  mutable misrouted : int;
  mutable replica_applies : int;
  mutable degraded_reads : int; (* reads answered by fewer than read_quorum *)
  mutable scans : int; (* Scan requests fanned out across the nodes *)
  mutable retries : int;
  mutable timeouts : int; (* RPC attempts that missed their deadline *)
  mutable hedges : int;
  mutable hedge_wins : int;
  mutable late_acks : int; (* acks that arrived after the client gave up *)
  mutable routed_around : int; (* suspected replicas skipped by reads *)
}

let c_retries = Obs.Counters.counter "router.retries"
let c_timeouts = Obs.Counters.counter "router.rpc_timeouts"
let c_hedges = Obs.Counters.counter "router.hedges"
let c_hedge_wins = Obs.Counters.counter "router.hedge_wins"
let c_late_acks = Obs.Counters.counter "router.late_acks"
let c_routed_around = Obs.Counters.counter "router.routed_around"

let create ?(costs = default_costs) ?(policy = default_policy) ?netem
    ?(seed = 0) ~write_quorum ~read_quorum ring nodes =
  let n_owners = Ring.replicas ring in
  if write_quorum < 1 || write_quorum > n_owners then
    invalid_arg "Router.create: write_quorum out of range";
  if read_quorum < 1 || read_quorum > n_owners then
    invalid_arg "Router.create: read_quorum out of range";
  Array.iter
    (fun n ->
      if Node.id n >= Array.length nodes || nodes.(Node.id n) != n then
        invalid_arg "Router.create: node ids must index the array")
    nodes;
  { ring;
    nodes;
    write_quorum;
    read_quorum;
    costs;
    policy;
    netem;
    detector = Detector.create ~n:(Array.length nodes) ();
    rng = Rng.create ~seed:(seed + 0x7e7e);
    stamp = 0;
    next_req_id = 0;
    route_cache = Array.make (Ring.vshards ring) None;
    dual = Array.make (Ring.vshards ring) [];
    ops = 0;
    gets = 0;
    writes = 0;
    redirects = 0;
    quorum_failures = 0;
    unavailable = 0;
    misrouted = 0;
    replica_applies = 0;
    degraded_reads = 0;
    scans = 0;
    retries = 0;
    timeouts = 0;
    hedges = 0;
    hedge_wins = 0;
    late_acks = 0;
    routed_around = 0 }

let ring t = t.ring
let nodes t = t.nodes
let node t id = t.nodes.(id)
let write_quorum t = t.write_quorum
let read_quorum t = t.read_quorum
let policy t = t.policy
let detector t = t.detector
let netem t = t.netem
let set_netem t nm = t.netem <- nm
let ops t = t.ops
let redirects t = t.redirects
let quorum_failures t = t.quorum_failures
let unavailable t = t.unavailable
let misrouted t = t.misrouted
let replica_applies t = t.replica_applies
let degraded_reads t = t.degraded_reads
let scans t = t.scans
let retries t = t.retries
let timeouts t = t.timeouts
let hedges t = t.hedges
let hedge_wins t = t.hedge_wins
let late_acks t = t.late_acks
let routed_around t = t.routed_around

let fresh_req_id t =
  t.next_req_id <- t.next_req_id + 1;
  t.next_req_id

(* migration dual-write registration *)
let add_dual t ~vshard nid =
  if not (List.mem nid t.dual.(vshard)) then
    t.dual.(vshard) <- nid :: t.dual.(vshard)

let remove_dual t ~vshard nid =
  t.dual.(vshard) <- List.filter (( <> ) nid) t.dual.(vshard)

(* -- the RPC primitive ----------------------------------------------- *)

(* One request/reply exchange with node [nid]: the request frame departs
   the client at [depart], every netem delivery of it occupies the node's
   serialized loop in arrival order (a node cannot tell a duplicate from
   a fresh frame — dedup is the handler's job, so [f] runs per delivery),
   and each completion's reply crosses netem back.  Returns the earliest
   client-side ack with that delivery's handler result, or [None] when
   nothing acked by [give_up] — the work a timed-out attempt started is
   NOT cancelled; it completes on the node and its late ack is counted.
   Fail-slow inflation stretches the whole service episode on the node's
   clock, so a slow node backs up honestly.

   Ops are processed in intended-arrival order, so a delivery at or
   before the loop clock's position queues behind it (wait_until +
   advance).  Out-of-band deliveries — retries departing after a
   deadline + backoff, hedges — can land far past that position, and
   jumping the serialized loop forward over idle time it would have
   spent serving later-processed (but earlier-arriving) requests
   manufactures phantom queueing that snowballs into every subsequent op
   timing out.  Those execute on a positioned copy of the loop clock
   instead: they pay every device and service cost, they just do not
   teleport the loop. *)
let rpc ?(oob = false) t nid ~depart ~bytes ~give_up f =
  let n = t.nodes.(nid) in
  (* one delivery of the request frame, arriving at [arr]: serve it on
     the node, send its reply, and keep the earliest ack seen so far *)
  let deliver best arr =
    let rxc =
      let real = Node.rx n in
      if oob && arr > Clock.now real then begin
        let c = Clock.copy real in
        ignore (Clock.wait_until c arr);
        c
      end
      else begin
        ignore (Clock.wait_until real arr);
        real
      end
    in
    let t0 = Clock.now rxc in
    Clock.advance rxc
      (t.costs.frame_ns +. (t.costs.byte_ns *. float_of_int bytes));
    let r = f n rxc in
    let keep best ack =
      match best with Some (b, _) when b <= ack -> best | _ -> Some (ack, r)
    in
    match t.netem with
    | None -> keep best (Clock.now rxc +. t.costs.net_ns)
    | Some nm ->
        let factor = Netem.slow_factor nm ~now:t0 ~node:nid in
        if factor > 1.0 then
          Clock.advance rxc ((factor -. 1.0) *. (Clock.now rxc -. t0));
        List.fold_left keep best
          (Netem.send nm ~now:(Clock.now rxc) ~src:(Netem.Node nid)
             ~dst:Netem.Client ~net_ns:t.costs.net_ns)
  in
  let best =
    match t.netem with
    | None -> deliver None (depart +. t.costs.net_ns)
    | Some nm ->
        List.fold_left deliver None
          (Netem.send nm ~now:depart ~src:Netem.Client ~dst:(Netem.Node nid)
             ~net_ns:t.costs.net_ns)
  in
  match best with
  | Some (ack, r) when ack <= give_up ->
      Detector.observe_ack t.detector ~node:nid ~rtt_ns:(ack -. depart);
      Some (ack, r)
  | Some _ ->
      t.late_acks <- t.late_acks + 1;
      Obs.Counters.incr c_late_acks;
      Detector.observe_timeout t.detector ~node:nid;
      None
  | None ->
      if give_up < infinity then Detector.observe_timeout t.detector ~node:nid;
      None

let rpc_timed_out t ~depart ~give_up =
  t.timeouts <- t.timeouts + 1;
  Obs.Counters.incr c_timeouts;
  if Obs.Attribution.enabled () then
    Obs.Attribution.add Rpc_timeout (give_up -. depart)

(* exponential backoff with +/- [backoff_jitter] uniform jitter *)
let backoff_delay t k =
  let base = t.policy.backoff_ns *. (2.0 ** float_of_int k) in
  let j = t.policy.backoff_jitter in
  let d =
    if j <= 0.0 then base
    else base *. (1.0 -. j +. (2.0 *. j *. Rng.float t.rng))
  in
  if Obs.Attribution.enabled () then Obs.Attribution.add Rpc_backoff d;
  d

(* hedge delay: the p99 a healthy replica should beat, floored so a cold
   detector cannot hedge every read *)
let hedge_delay t =
  Float.max t.policy.hedge_floor_ns (Detector.rtt_p99 t.detector)

(* Resolve a vshard's owners through the route cache.  A stale cache
   entry costs one observable bounce: the old first owner handles the
   frame, refuses with [Not_owner], and the client retries after the
   extra round-trip.  The bounce is a real exchange, so netem applies; a
   lost bounce costs the deadline before the client re-resolves.
   Returns (owners, time the retried frame departs). *)
let resolve t ~at ~bytes vshard =
  let real = Ring.owners t.ring vshard in
  match t.route_cache.(vshard) with
  | Some cached when cached == real || cached = real -> (real, at)
  | None ->
      t.route_cache.(vshard) <- Some real;
      (real, at)
  | Some cached ->
      t.redirects <- t.redirects + 1;
      t.route_cache.(vshard) <- Some real;
      let fallback =
        at +. Float.min (2.0 *. t.costs.net_ns) t.policy.deadline_ns
      in
      let depart =
        match
          List.find_opt (fun nid -> Node.status t.nodes.(nid) <> Node.Down) cached
        with
        | Some nid -> (
            let give_up = at +. t.policy.deadline_ns in
            match rpc t nid ~depart:at ~bytes ~give_up (fun _ _ -> ()) with
            | Some (bounced, ()) -> bounced
            | None -> Float.min give_up fallback)
        | None -> at +. (2.0 *. t.costs.net_ns)
      in
      (real, depart)

(* Owner-list helpers for the request path.  Owner lists are a few
   elements long; each helper returns its input (or a suffix of it)
   instead of a copy whenever it keeps every element, so the common case
   — every owner healthy, the whole list wanted — allocates nothing. *)
let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: rest as l ->
      let rest' = take (n - 1) rest in
      if rest' == rest then l else x :: rest'

let rec drop n = function
  | _ :: rest when n > 0 -> drop (n - 1) rest
  | l -> l

(* the nodes of [l] whose status satisfies [ok], in order *)
let rec with_status t ok = function
  | [] -> []
  | nid :: rest as l ->
      let rest' = with_status t ok rest in
      if not (ok (Node.status t.nodes.(nid))) then rest'
      else if rest' == rest then l
      else nid :: rest'

(* ascending insert: the acks of a write, in arrival order *)
let rec insert (x : float) = function
  | y :: rest when y <= x -> y :: insert x rest
  | l -> x :: l

type outcome = {
  reply : Proto.reply;
  finish : float; (* client-side completion time *)
  acked : (Types.key * int * Node.action) list;
      (* quorum-acked mutations, for the oracle *)
  stamp : int;
      (* write: the minted stamp (even when unacked, for the history
         audit's issued-bound); read: the answering replica's version;
         -1 when nothing was minted / observed *)
}

let submit_write ?req_id ?deadline t ~at ~bytes key action =
  t.writes <- t.writes + 1;
  let deadline = Option.value deadline ~default:t.policy.deadline_ns in
  let vshard = Ring.vshard_of t.ring key in
  let owners, depart = resolve t ~at ~bytes vshard in
  let live = with_status t (fun s -> s <> Node.Down) in
  let live_owners = live owners in
  if List.length live_owners < t.write_quorum then begin
    t.quorum_failures <- t.quorum_failures + 1;
    { reply = Proto.Err "quorum";
      finish = depart +. (2.0 *. t.costs.net_ns);
      acked = [];
      stamp = -1 }
  end
  else begin
    t.stamp <- t.stamp + 1;
    let stamp = t.stamp in
    let req_id = match req_id with Some r -> r | None -> fresh_req_id t in
    let apply_f n rxc =
      if Node.apply ~req_id n rxc ~stamp key action then
        t.replica_applies <- t.replica_applies + 1
    in
    let acks = ref [] in
    (* retry loop: each round contacts the owners that have not acked
       yet, with the same stamp and request id — the node-side dedup and
       the stamp comparison make replays exactly-once *)
    let rec attempt k ~depart pending =
      let give_up = depart +. deadline in
      let still =
        List.filter
          (fun nid ->
            match rpc ~oob:(k > 0) t nid ~depart ~bytes ~give_up apply_f with
            | Some (ack, ()) ->
                acks := insert ack !acks;
                false
            | None ->
                rpc_timed_out t ~depart ~give_up;
                true)
          pending
      in
      if List.length !acks >= t.write_quorum then `Acked
      else if k >= t.policy.max_retries || deadline = infinity then
        `Timed_out give_up
      else begin
        t.retries <- t.retries + 1;
        Obs.Counters.incr c_retries;
        attempt (k + 1) ~depart:(give_up +. backoff_delay t k) still
      end
    in
    match attempt 0 ~depart live_owners with
    | `Acked ->
        (* dual-write extras are best-effort: never retried, never part
           of the quorum — migration's copy pass covers any gap *)
        (match t.dual.(vshard) with
        | [] -> ()
        | dual ->
            List.iter
              (fun nid ->
                if not (List.mem nid owners) then
                  ignore (rpc t nid ~depart ~bytes ~give_up:infinity apply_f))
              (live dual));
        let finish = List.nth !acks (t.write_quorum - 1) in
        { reply = Proto.Ok;
          finish = max at finish;
          acked = [ (key, stamp, action) ];
          stamp }
    | `Timed_out give_up ->
        (* the write may live on a minority of owners (counted residue in
           the chaos audit); it was never acked, so the oracle ignores it *)
        let finish =
          if give_up < infinity then give_up
          else depart +. (2.0 *. t.costs.net_ns)
        in
        { reply = Proto.Err "timeout";
          finish = max at finish;
          acked = [];
          stamp }
  end

let reply_of_read n result =
  let module S = Kv_common.Store_intf in
  match result with
  | { S.value = Some v; _ } -> Proto.Value v
  | { S.stage = S.Corrupt; _ } -> Proto.Corrupted
  | { S.loc = Some loc; _ } ->
      Proto.Hit (Kv_common.Vlog.vlen_at (S.vlog (Node.store n)) loc)
  | { S.loc = None; _ } -> Proto.Miss

let submit_read ?deadline t ~at ~bytes key =
  t.gets <- t.gets + 1;
  let deadline = Option.value deadline ~default:t.policy.deadline_ns in
  let vshard = Ring.vshard_of t.ring key in
  let owners, depart = resolve t ~at ~bytes vshard in
  let readable = with_status t (fun s -> s = Node.Up) owners in
  if readable = [] then begin
    t.unavailable <- t.unavailable + 1;
    { reply = Proto.Err "unavailable";
      finish = depart +. (2.0 *. t.costs.net_ns);
      acked = [];
      stamp = -1 }
  end
  else begin
    let want = min t.read_quorum (List.length readable) in
    if want < t.read_quorum then t.degraded_reads <- t.degraded_reads + 1;
    (* preference order: suspected replicas (partitioned, fail-slow) go
       to the back so the quorum is filled from healthy ones first *)
    let ordered =
      if t.policy.route_around then begin
        let healthy, suspect =
          List.partition
            (fun nid -> not (Detector.suspected t.detector ~node:nid))
            readable
        in
        List.iter
          (fun nid ->
            if not (List.mem nid (take want (healthy @ suspect))) then begin
              t.routed_around <- t.routed_around + 1;
              Obs.Counters.incr c_routed_around
            end)
          (take want readable);
        healthy @ suspect
      end
      else readable
    in
    let targets = take want ordered in
    (* hedge state exists only under a hedging policy *)
    let spares = ref (if t.policy.hedge then drop want ordered else []) in
    let read_f nid n rxc =
      if not (List.mem nid (Ring.owners t.ring vshard)) then
        t.misrouted <- t.misrouted + 1;
      let result = Node.read n rxc key in
      let version = Option.value ~default:(-1) (Node.version n key) in
      (version, reply_of_read n result)
    in
    (* one probe, hedged: if the primary has not acked within the hedge
       delay, duplicate the read to a spare replica and take whichever
       acks first (both are owners, so either answer is quorum-valid) *)
    let probe ~oob ~depart nid =
      let give_up = depart +. deadline in
      let res = rpc ~oob t nid ~depart ~bytes ~give_up (read_f nid) in
      if not t.policy.hedge then res
      else
        let hd = hedge_delay t in
        match (res, !spares) with
        | Some (ack, _), _ when ack -. depart <= hd -> res
        | _, [] -> res
        | _, spare :: rest -> (
            spares := rest;
            t.hedges <- t.hedges + 1;
            Obs.Counters.incr c_hedges;
            if Obs.Attribution.enabled () then
              Obs.Attribution.add Rpc_hedge hd;
            let hdepart = depart +. hd in
            let hres =
              rpc ~oob:true t spare ~depart:hdepart ~bytes
                ~give_up:(hdepart +. deadline) (read_f spare)
            in
            match (res, hres) with
            | None, Some _ ->
                t.hedge_wins <- t.hedge_wins + 1;
                Obs.Counters.incr c_hedge_wins;
                hres
            | Some (a, _), Some (ha, _) when ha < a ->
                t.hedge_wins <- t.hedge_wins + 1;
                Obs.Counters.incr c_hedge_wins;
                hres
            | _ -> res)
    in
    let rec attempt k ~depart pending answers =
      let give_up = depart +. deadline in
      let answers, failed =
        List.fold_left
          (fun (answers, failed) nid ->
            match probe ~oob:(k > 0) ~depart nid with
            | Some (ack, (version, rep)) ->
                ((version, rep, ack) :: answers, failed)
            | None ->
                rpc_timed_out t ~depart ~give_up;
                (answers, nid :: failed))
          (answers, []) pending
      in
      if failed = [] || k >= t.policy.max_retries || deadline = infinity then
        (answers, failed, give_up)
      else begin
        t.retries <- t.retries + 1;
        Obs.Counters.incr c_retries;
        attempt (k + 1) ~depart:(give_up +. backoff_delay t k)
          (List.rev failed) answers
      end
    in
    let answers, failed, last_give_up = attempt 0 ~depart targets [] in
    match answers with
    | [] ->
        t.unavailable <- t.unavailable + 1;
        let finish =
          if last_give_up < infinity then last_give_up
          else depart +. (2.0 *. t.costs.net_ns)
        in
        { reply = Proto.Err "timeout";
          finish = max at finish;
          acked = [];
          stamp = -1 }
    | first :: rest ->
        if failed <> [] then t.degraded_reads <- t.degraded_reads + 1;
        let finish =
          List.fold_left (fun acc (_, _, ack) -> max acc ack) at answers
        in
        let version, best, _ =
          List.fold_left
            (fun ((bv, _, _) as acc) ((v, _, _) as cand) ->
              if v > bv then cand else acc)
            first rest
        in
        { reply = best; finish; acked = []; stamp = version }
  end

(* An ordered scan crosses every vshard, so the router fans it out: every
   [Up] node scans its local store (charged on its own service loop), the
   replies are reconciled per key — the freshest owner replica wins, by
   version stamp, ties to the lower node id; leftovers on nodes that no
   longer own the key's vshard are discarded — and the winner-filtered
   per-node streams are merged in key order through {!Kv_common.Scan}.
   Completeness needs every vshard to have at least one [Up] owner AND an
   answer from every [Up] node (per-node exchanges retry on timeout);
   otherwise the scan is refused rather than answered with a silent
   gap. *)
let fan_scan t ~at ~bytes ~start ~limit =
  t.scans <- t.scans + 1;
  let covered = ref true in
  for v = 0 to Ring.vshards t.ring - 1 do
    if
      not
        (List.exists
           (fun nid -> Node.status t.nodes.(nid) = Node.Up)
           (Ring.owners t.ring v))
    then covered := false
  done;
  if not !covered then begin
    t.unavailable <- t.unavailable + 1;
    { reply = Proto.Err "unavailable";
      finish = at +. (2.0 *. t.costs.net_ns);
      acked = [];
      stamp = -1 }
  end
  else begin
    let module S = Kv_common.Store_intf in
    let up =
      List.filter
        (fun nid -> Node.status t.nodes.(nid) = Node.Up)
        (List.init (Array.length t.nodes) Fun.id)
    in
    let rec scan_node k ~depart nid =
      let give_up = depart +. t.policy.deadline_ns in
      match
        rpc ~oob:(k > 0) t nid ~depart ~bytes ~give_up (fun n rxc ->
            S.scan (Node.store n) rxc ~start ~limit)
      with
      | Some (ack, entries) -> Some (nid, entries, ack)
      | None ->
          rpc_timed_out t ~depart ~give_up;
          if k >= t.policy.max_retries || t.policy.deadline_ns = infinity then
            None
          else begin
            t.retries <- t.retries + 1;
            Obs.Counters.incr c_retries;
            scan_node (k + 1) ~depart:(give_up +. backoff_delay t k) nid
          end
    in
    let replies = List.filter_map (scan_node 0 ~depart:at) up in
    if List.length replies < List.length up then begin
      (* a node never answered: a partial fan-out would be a silent gap *)
      t.unavailable <- t.unavailable + 1;
      let finish =
        List.fold_left
          (fun acc (_, _, ack) -> max acc ack)
          (at +. (2.0 *. t.costs.net_ns))
          replies
      in
      { reply = Proto.Err "timeout"; finish; acked = []; stamp = -1 }
    end
    else begin
      let finish =
        List.fold_left (fun acc (_, _, ack) -> max acc ack) at replies
      in
      (* per-key reconciliation: (stamp, node) of the freshest owner copy *)
      let best : (Types.key, int * int) Hashtbl.t = Hashtbl.create 256 in
      List.iter
        (fun (nid, entries, _) ->
          List.iter
            (fun (key, _loc) ->
              if List.mem nid (Ring.owners_of_key t.ring key) then begin
                let stamp =
                  Option.value ~default:(-1) (Node.version t.nodes.(nid) key)
                in
                match Hashtbl.find_opt best key with
                | Some (s, n) when s > stamp || (s = stamp && n <= nid) -> ()
                | _ -> Hashtbl.replace best key (stamp, nid)
              end)
            entries)
        replies;
      let streams =
        List.map
          (fun (nid, entries, _) ->
            Kv_common.Scan.of_sorted
              (List.filter
                 (fun (key, _) ->
                   match Hashtbl.find_opt best key with
                   | Some (_, winner) -> winner = nid
                   | None -> false)
                 entries))
          replies
      in
      let entries, _status =
        Kv_common.Scan.take (Kv_common.Scan.merge streams) ~limit
      in
      let values =
        List.map
          (fun (key, loc) ->
            let _, nid = Hashtbl.find best key in
            let n = t.nodes.(nid) in
            (key, Kv_common.Vlog.vlen_at (S.vlog (Node.store n)) loc, None))
          entries
      in
      { reply = Proto.Values values; finish; acked = []; stamp = -1 }
    end
  end

let vlen_of_payload v = Bytes.length v

(* The one typed entry point: route any request.  Batches route each
   inner op (all charged against the batch frame's arrival time) and
   fold their outcomes.  A [Proto.hdr] envelope supplies the request id
   (single writes only — batch inner ops mint their own, since sharing
   one id across keys would dedup sibling ops) and a per-attempt
   deadline override. *)
let rec call ?hdr t ~at ~bytes req =
  t.ops <- t.ops + 1;
  let req_id = Option.map (fun h -> h.Proto.h_req_id) hdr in
  let deadline = Option.map (fun h -> h.Proto.h_deadline_ns) hdr in
  match req with
  | Proto.Get k -> submit_read ?deadline t ~at ~bytes k
  | Proto.Put (k, v) ->
      submit_write ?req_id ?deadline t ~at ~bytes k
        (Node.Put (vlen_of_payload v))
  | Proto.Delete k -> submit_write ?req_id ?deadline t ~at ~bytes k Node.Delete
  | Proto.Scan (start, limit) -> fan_scan t ~at ~bytes ~start ~limit
  | Proto.Batch reqs ->
      let inner_hdr =
        Option.map (fun h -> { h with Proto.h_req_id = 0 }) hdr
      in
      let outcomes =
        List.map
          (fun r ->
            let hdr =
              Option.map
                (fun h -> { h with Proto.h_req_id = fresh_req_id t })
                inner_hdr
            in
            call ?hdr t ~at ~bytes:(Bytes.length (Proto.encode_request r)) r)
          reqs
      in
      { reply = Proto.Replies (List.map (fun o -> o.reply) outcomes);
        finish = List.fold_left (fun acc o -> max acc o.finish) at outcomes;
        acked = List.concat_map (fun o -> o.acked) outcomes;
        stamp = -1 }
