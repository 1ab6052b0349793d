(* One cluster node: a full store instance plus the replication metadata
   the cluster layer needs on top of it.

   The store itself is unmodified — crashes, recovery, checksums and the
   device cost model all behave exactly as in single-node runs.  The node
   wrapper adds:

   - [versions]: per-key newest applied version stamp (DRAM).  Quorum
     reads compare stamps across replicas; applies are idempotent (an
     entry with a stamp <= the current one is skipped), which is what
     makes catch-up streaming and migration dual-writes safe to replay.

   - [stamps]: vlog location -> stamp, mirroring the store's value log.
     Stamps are assigned by the router's global sequencer and applied in
     stamp order, so the array is monotone over cluster-written locations
     — the durable floor and catch-up scans exploit that.

   Both are DRAM state: a node crash loses them (the array is truncated
   to the persisted log prefix, [versions] is rebuilt from it on rejoin),
   exactly as a real replica would rebuild its session state from its
   durable log. *)

module Clock = Pmem_sim.Clock
module Store_intf = Kv_common.Store_intf
module Vlog = Kv_common.Vlog
module Types = Kv_common.Types

(* Key-typed version map: [Int64.equal] instead of polymorphic compare,
   and the generic table's own hash, so buckets (and [iter_versions]
   order) are exactly those of a [(key, int) Hashtbl.t]. *)
module Versions = Hashtbl.Make (struct
  type t = Types.key

  let equal = Int64.equal
  let hash = Hashtbl.hash
end)

type status = Up | Down | Syncing

type action = Put of int | Delete

type t = {
  id : int;
  store : Store_intf.store;
  rx : Clock.t; (* the node's serialized service loop *)
  versions : int Versions.t;
  mutable stamps : int array; (* vlog loc -> stamp; -1 = non-cluster entry *)
  mutable nstamps : int;
  mutable status : status;
  mutable kills : int;
  mutable restart_ns : float; (* total simulated restart time across rejoins *)
  seen_reqs : (int, unit) Hashtbl.t; (* request ids already processed *)
  mutable dedup_hits : int;
}

let c_dedup = Obs.Counters.counter "node.dedup_hits"

let create ~id store =
  { id;
    store;
    rx = Clock.create ();
    versions = Versions.create 4096;
    stamps = Array.make 4096 (-1);
    nstamps = 0;
    status = Up;
    kills = 0;
    restart_ns = 0.0;
    seen_reqs = Hashtbl.create 4096;
    dedup_hits = 0 }

let id t = t.id
let store t = t.store
let rx t = t.rx
let status t = t.status
let set_status t s = t.status <- s
let kills t = t.kills
let restart_ns t = t.restart_ns
let dedup_hits t = t.dedup_hits
let version t key = Versions.find_opt t.versions key
let iter_versions t f = Versions.iter f t.versions

let set_stamp t loc stamp =
  let cap = Array.length t.stamps in
  if loc >= cap then begin
    let grown = Array.make (max (cap * 2) (loc + 1)) (-1) in
    Array.blit t.stamps 0 grown 0 t.nstamps;
    t.stamps <- grown
  end;
  t.stamps.(loc) <- stamp;
  if loc >= t.nstamps then t.nstamps <- loc + 1

let stamp_at t loc = if loc < t.nstamps then t.stamps.(loc) else -1

(* Apply a stamped mutation.  Returns [false] (and charges nothing) when
   the node already holds this version or a newer one — catch-up and
   dual-write replays hit this path — or when the request id was already
   processed (a duplicated or retried delivery: the dedup guard that
   makes "ack after k retries applies exactly once" hold even before the
   stamp comparison could catch it). *)
let apply ?req_id t clock ~stamp key action =
  match req_id with
  | Some r when Hashtbl.mem t.seen_reqs r ->
      t.dedup_hits <- t.dedup_hits + 1;
      Obs.Counters.incr c_dedup;
      false
  | _ ->
  (match req_id with
  | Some r -> Hashtbl.replace t.seen_reqs r ()
  | None -> ());
  let cur = Option.value ~default:(-1) (Versions.find_opt t.versions key) in
  if stamp <= cur then false
  else begin
    (match action with
    | Put vlen -> Store_intf.write t.store clock key (Sized vlen)
    | Delete -> Store_intf.delete t.store clock key);
    set_stamp t (Vlog.length (Store_intf.vlog t.store) - 1) stamp;
    Versions.replace t.versions key stamp;
    true
  end

(* Grouped apply for catch-up streaming: the fresh puts in [entries]
   commit as one [write_batch] — one persist fence where the store has
   one — with stamps mapped onto the group's log locations in order.
   Deletes, and anything stale, take the single-op [apply] semantics.
   Returns how many entries were actually applied. *)
let apply_batch t clock entries =
  let applied = ref 0 in
  let cur key = Option.value ~default:(-1) (Versions.find_opt t.versions key) in
  let pending = ref [] in
  (* newest pending stamp per key, so intra-group duplicates keep the
     same skip rule the sequential path has *)
  let pending_ver : (Types.key, int) Hashtbl.t = Hashtbl.create 16 in
  let effective key =
    max (cur key) (Option.value ~default:(-1) (Hashtbl.find_opt pending_ver key))
  in
  let flush_pending () =
    match List.rev !pending with
    | [] -> ()
    | group ->
      pending := [];
      Hashtbl.reset pending_ver;
      let vlog = Store_intf.vlog t.store in
      let base = Vlog.length vlog in
      Store_intf.write_batch t.store clock
        (List.map (fun (_, key, vlen) -> (key, Store_intf.Sized vlen)) group);
      List.iteri
        (fun i (stamp, key, _) ->
          set_stamp t (base + i) stamp;
          Versions.replace t.versions key stamp;
          incr applied)
        group
  in
  List.iter
    (fun (stamp, key, action) ->
      if stamp > effective key then
        match action with
        | Put vlen ->
          pending := (stamp, key, vlen) :: !pending;
          Hashtbl.replace pending_ver key stamp
        | Delete ->
          (* order matters: anything buffered lands before the delete *)
          flush_pending ();
          if apply t clock ~stamp key Delete then incr applied)
    entries;
  flush_pending ();
  !applied

let read t clock key = Store_intf.read t.store clock key

(* Local space reclamation after a shard migrates away: a plain store
   delete, deliberately unstamped so it can never propagate through
   catch-up and delete live data on the shard's new owners. *)
let forget t clock key =
  Store_intf.delete t.store clock key;
  Versions.remove t.versions key

(* -- crash / rejoin ------------------------------------------------- *)

let kill ?tear ~seed t =
  Fault.Node.kill ?tear ~seed t.store;
  t.status <- Down;
  t.kills <- t.kills + 1;
  (* the log dropped its unpersisted tail; locations above it will be
     reused, so the stamp mirror must forget them too *)
  t.nstamps <- min t.nstamps (Vlog.length (Store_intf.vlog t.store));
  Versions.reset t.versions;
  (* the dedup table is DRAM session state: a crashed node cannot tell a
     retry from a fresh request — the stamp comparison still can *)
  Hashtbl.reset t.seen_reqs

(* Highest stamp the node is known to hold contiguously: the end of the
   longest non-decreasing stamped prefix of its log.  During normal
   service applies land in stamp order so this is simply the newest
   surviving stamp; if the node crashed mid-catch-up, replayed middle
   stamps interleave with fresh high ones and the prefix stops at the
   pre-crash data — a conservative floor, never an overstated one. *)
let durable_floor t =
  let floor = ref (-1) in
  (try
     for loc = 0 to t.nstamps - 1 do
       let s = t.stamps.(loc) in
       if s >= 0 then
         if s >= !floor then floor := s else raise Exit
     done
   with Exit -> ());
  !floor

let rejoin t clock =
  let dt = Fault.Node.rejoin t.store clock in
  t.restart_ns <- t.restart_ns +. dt;
  (* rebuild the version map from the surviving stamped log prefix;
     ascending location order means the last write per key wins, and a
     tombstone is a version like any other *)
  let vlog = Store_intf.vlog t.store in
  for loc = Vlog.head vlog to min t.nstamps (Vlog.length vlog) - 1 do
    if t.stamps.(loc) >= 0 then
      Versions.replace t.versions (Vlog.key_at vlog loc) t.stamps.(loc)
  done;
  t.status <- Syncing;
  dt
