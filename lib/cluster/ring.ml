(* Rendezvous-hash (HRW) placement over a fixed set of virtual shards.

   Keys hash to one of [vshards] virtual shards; each virtual shard ranks
   every member node by a per-(vshard, node) hash score and is owned by
   the top [replicas] nodes.  HRW needs no token ring or rebalancing
   metadata: adding or removing a node moves exactly the 1/N slice of
   vshards whose top-score set changes, and every router computes the
   same owners from the member list alone.

   The member set is fixed at [create], so the HRW owners of every vshard
   are ranked once there and kept in a table.  Migration overlays an
   explicit per-vshard owner override on top of that table (set at
   cutover, so placement changes are deliberate and observable rather
   than emergent). *)

module Hash = Kv_common.Hash

type t = {
  vshards : int;
  replicas : int;
  members : int list; (* sorted node ids *)
  hrw : int list array; (* vshard -> HRW owners, fixed at [create] *)
  overrides : int list option array; (* vshard -> explicit owners *)
}

(* keys are pre-mixed with a salt so vshard routing is independent of the
   store-internal shard hash (which uses the high bits of mix64 key) *)
let vshard_salt = 0x5DEECE66DL

let score ~vshard ~node =
  Hash.mix64
    (Int64.logxor
       (Hash.mix64 (Int64.of_int (vshard + 1)))
       (Hash.mix64 (Int64.of_int ((node + 1) * 0x9E3779B9))))

let rank members vshard =
  List.stable_sort
    (fun a b -> compare (score ~vshard ~node:b) (score ~vshard ~node:a))
    members

let create ~vshards ~replicas ~nodes () =
  if vshards <= 0 then invalid_arg "Ring.create: vshards <= 0";
  if replicas <= 0 then invalid_arg "Ring.create: replicas <= 0";
  if List.length nodes < replicas then
    invalid_arg "Ring.create: fewer nodes than replicas";
  let members = List.sort_uniq compare nodes in
  { vshards;
    replicas;
    members;
    hrw =
      Array.init vshards (fun v ->
          List.filteri (fun i _ -> i < replicas) (rank members v));
    overrides = Array.make vshards None }

let vshards t = t.vshards
let replicas t = t.replicas
let members t = t.members

let vshard_of t key =
  Hash.shard_of
    ~hash:(Hash.mix64 (Int64.logxor key vshard_salt))
    ~shards:t.vshards

let preference t vshard = rank t.members vshard

let set_override t ~vshard owners =
  if List.length owners <> t.replicas then
    invalid_arg "Ring.set_override: wrong owner count";
  t.overrides.(vshard) <- Some owners

let clear_override t ~vshard = t.overrides.(vshard) <- None

let owners t vshard =
  match t.overrides.(vshard) with Some o -> o | None -> t.hrw.(vshard)

let owners_of_key t key = owners t (vshard_of t key)
