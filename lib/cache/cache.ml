module Clock = Pmem_sim.Clock
module Cost = Pmem_sim.Cost_model
module Types = Kv_common.Types
module Hash = Kv_common.Hash

let c_hits = Obs.Counters.counter "cache.hits"
let c_misses = Obs.Counters.counter "cache.misses"
let c_negative_hits = Obs.Counters.counter "cache.negative_hits"
let c_fills = Obs.Counters.counter "cache.fills"
let c_evictions = Obs.Counters.counter "cache.evictions"
let c_invalidations = Obs.Counters.counter "cache.invalidations"
let c_relocations = Obs.Counters.counter "cache.relocations"

let entry_overhead_bytes = 32

type entry = {
  key : Types.key;
  mutable loc : Types.loc; (* meaningful only when [negative] is false *)
  vlen : int;
  value : bytes option;
  negative : bool;
  charge : int;
  mutable refbit : bool;
}

(* One CLOCK ring: a hashtable resolves keys to slots; the hand sweeps the
   slot array giving referenced entries a second chance.  Slots freed by
   eviction or invalidation are recycled through a free list, so the array
   only grows toward the segment's capacity-implied entry count. *)
type seg = {
  tbl : (Types.key, int) Hashtbl.t;
  mutable slots : entry option array;
  mutable free : int list;
  mutable hand : int;
  mutable used : int; (* charged bytes *)
  capacity : int;
}

type outcome =
  | Hit of { loc : Types.loc; vlen : int; value : bytes option }
  | Negative
  | Miss

type t = {
  segs : seg array;
  capacity_bytes : int;
}

let seg_create capacity =
  { tbl = Hashtbl.create 64;
    slots = [||];
    free = [];
    hand = 0;
    used = 0;
    capacity }

let create ~shards ~capacity_bytes () =
  if shards <= 0 then invalid_arg "Cache.create: shards must be positive";
  if capacity_bytes <= 0 then
    invalid_arg "Cache.create: capacity must be positive";
  let per = capacity_bytes / shards in
  { segs = Array.init shards (fun _ -> seg_create per);
    capacity_bytes = per * shards }

let seg_of t key =
  t.segs.(Hash.shard_of ~hash:(Hash.mix64 key) ~shards:(Array.length t.segs))

let drop_slot seg slot =
  match seg.slots.(slot) with
  | None -> ()
  | Some e ->
    Hashtbl.remove seg.tbl e.key;
    seg.slots.(slot) <- None;
    seg.free <- slot :: seg.free;
    seg.used <- seg.used - e.charge

(* Sweep the hand until [need] bytes fit; every examined slot costs one
   DRAM access.  Terminates because each full revolution clears all
   reference bits, after which occupied slots are reclaimed. *)
let rec evict_for seg clock need =
  if seg.used + need > seg.capacity && seg.used > 0 then begin
    let n = Array.length seg.slots in
    let i = seg.hand in
    seg.hand <- (i + 1) mod n;
    (match seg.slots.(i) with
    | None -> ()
    | Some e ->
      Clock.advance clock Cost.dram_hit_ns;
      if e.refbit then e.refbit <- false
      else begin
        drop_slot seg i;
        Obs.Counters.incr c_evictions
      end);
    evict_for seg clock need
  end

let alloc_slot seg =
  match seg.free with
  | s :: rest ->
    seg.free <- rest;
    s
  | [] ->
    let n = Array.length seg.slots in
    let cap = max 8 (2 * n) in
    let slots = Array.make cap None in
    Array.blit seg.slots 0 slots 0 n;
    seg.slots <- slots;
    seg.free <- List.init (cap - n - 1) (fun i -> n + 1 + i);
    n

let place seg clock e =
  (match Hashtbl.find_opt seg.tbl e.key with
  | Some slot -> drop_slot seg slot
  | None -> ());
  if e.charge <= seg.capacity then begin
    evict_for seg clock e.charge;
    let slot = alloc_slot seg in
    seg.slots.(slot) <- Some e;
    Hashtbl.replace seg.tbl e.key slot;
    seg.used <- seg.used + e.charge
  end

let find t clock key =
  let seg = seg_of t key in
  Clock.advance clock (Cost.hash_ns +. Cost.dram_hit_ns);
  match Hashtbl.find_opt seg.tbl key with
  | None ->
    Obs.Counters.incr c_misses;
    Miss
  | Some slot -> begin
    match seg.slots.(slot) with
    | None ->
      Obs.Counters.incr c_misses;
      Miss
    | Some e ->
      e.refbit <- true;
      if e.negative then begin
        Obs.Counters.incr c_negative_hits;
        Negative
      end
      else begin
        Obs.Counters.incr c_hits;
        (* serve from DRAM: a row read plus the payload copy *)
        Clock.advance clock
          (Cost.dram_read_ns
          +. (Cost.memcpy_ns_per_byte *. float_of_int (max e.vlen 0)));
        Hit
          { loc = e.loc; vlen = e.vlen; value = Option.map Bytes.copy e.value }
      end
  end

let insert t clock key ~loc ~vlen ?value () =
  let seg = seg_of t key in
  Clock.advance clock
    (Cost.hash_ns +. Cost.dram_hit_ns
    +. (Cost.memcpy_ns_per_byte *. float_of_int (max vlen 0)));
  Obs.Counters.incr c_fills;
  place seg clock
    { key;
      loc;
      vlen;
      value = Option.map Bytes.copy value;
      negative = false;
      charge = entry_overhead_bytes + max vlen 0;
      refbit = true }

let insert_negative t clock key =
  let seg = seg_of t key in
  Clock.advance clock (Cost.hash_ns +. Cost.dram_hit_ns);
  Obs.Counters.incr c_fills;
  place seg clock
    { key;
      loc = Types.tombstone;
      vlen = -1;
      value = None;
      negative = true;
      charge = entry_overhead_bytes;
      refbit = true }

let invalidate t clock key =
  let seg = seg_of t key in
  (* the caller's index insert hashed the key already; one probe suffices *)
  Clock.advance clock Cost.dram_hit_ns;
  match Hashtbl.find_opt seg.tbl key with
  | Some slot ->
    drop_slot seg slot;
    Obs.Counters.incr c_invalidations
  | None -> ()

let relocate t clock key ~expect ~loc =
  let seg = seg_of t key in
  Clock.advance clock Cost.dram_hit_ns;
  match Hashtbl.find_opt seg.tbl key with
  | Some slot -> begin
    match seg.slots.(slot) with
    | Some e when (not e.negative) && e.loc = expect ->
      e.loc <- loc;
      Obs.Counters.incr c_relocations
    | Some _ | None -> ()
  end
  | None -> ()

let clear t =
  Array.iter
    (fun seg ->
      Hashtbl.reset seg.tbl;
      seg.slots <- [||];
      seg.free <- [];
      seg.hand <- 0;
      seg.used <- 0)
    t.segs

let used_bytes t = Array.fold_left (fun a s -> a + s.used) 0 t.segs
let capacity_bytes t = t.capacity_bytes
let dram_footprint t = float_of_int (used_bytes t)
