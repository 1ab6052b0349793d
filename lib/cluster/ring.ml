(* Rendezvous-hash (HRW) placement over a fixed set of virtual shards.

   Keys hash to one of [vshards] virtual shards; each virtual shard ranks
   every member node by a per-(vshard, node) hash score and is owned by
   the top [replicas] nodes.  HRW needs no token ring or rebalancing
   metadata: adding or removing a node moves exactly the 1/N slice of
   vshards whose top-score set changes, and every router computes the
   same owners from the member list alone.

   Migration overlays an explicit per-vshard owner override on top of the
   HRW ranking (set at cutover, so placement changes are deliberate and
   observable rather than emergent). *)

module Hash = Kv_common.Hash

type t = {
  vshards : int;
  replicas : int;
  members : int list; (* sorted node ids *)
  overrides : (int, int list) Hashtbl.t; (* vshard -> explicit owners *)
}

let create ~vshards ~replicas ~nodes () =
  if vshards <= 0 then invalid_arg "Ring.create: vshards <= 0";
  if replicas <= 0 then invalid_arg "Ring.create: replicas <= 0";
  if List.length nodes < replicas then
    invalid_arg "Ring.create: fewer nodes than replicas";
  { vshards;
    replicas;
    members = List.sort_uniq compare nodes;
    overrides = Hashtbl.create 16 }

let vshards t = t.vshards
let replicas t = t.replicas
let members t = t.members

(* keys are pre-mixed with a salt so vshard routing is independent of the
   store-internal shard hash (which uses the high bits of mix64 key) *)
let vshard_salt = 0x5DEECE66DL

let vshard_of t key =
  Hash.shard_of
    ~hash:(Hash.mix64 (Int64.logxor key vshard_salt))
    ~shards:t.vshards

let score ~vshard ~node =
  Hash.mix64
    (Int64.logxor
       (Hash.mix64 (Int64.of_int (vshard + 1)))
       (Hash.mix64 (Int64.of_int ((node + 1) * 0x9E3779B9))))

let preference t vshard =
  List.stable_sort
    (fun a b -> compare (score ~vshard ~node:b) (score ~vshard ~node:a))
    t.members

let set_override t ~vshard owners =
  if List.length owners <> t.replicas then
    invalid_arg "Ring.set_override: wrong owner count";
  Hashtbl.replace t.overrides vshard owners

let clear_override t ~vshard = Hashtbl.remove t.overrides vshard
let override t ~vshard = Hashtbl.find_opt t.overrides vshard

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let owners t vshard =
  match Hashtbl.find_opt t.overrides vshard with
  | Some o -> o
  | None -> take t.replicas (preference t vshard)

let owners_of_key t key = owners t (vshard_of t key)
