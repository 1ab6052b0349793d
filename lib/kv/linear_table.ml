module Clock = Pmem_sim.Clock
module Device = Pmem_sim.Device
module Cost_model = Pmem_sim.Cost_model
module Crc32c = Pmem_sim.Crc32c

type layout = Hashed | Sorted | Mph

type mph_art = {
  ma_idx : Mph.t; (* DRAM mirror (counted in dram_bytes) *)
  mutable ma_off : int; (* device offset of the serialized artifact *)
  ma_len : int;
}

type t = {
  dev : Device.t;
  off : int;
  nslots : int;
  mutable live : int;
  mutable tag : int;
  unit_crcs : int32 array; (* per-write-unit block checksums *)
  layout : layout;
  fences : Types.key array;
      (* Sorted only: first key of each write unit, kept in DRAM.  Point
         gets binary-search the fences and touch exactly one unit. *)
  mph : mph_art option;
      (* Mph only: the perfect-hash index — DRAM mirror plus its durable
         CRC-checked artifact in its own device allocation. *)
}

type probe = Found of Types.loc | Absent | Corrupted

let slot_off t i = t.off + (i * Types.slot_bytes)

(* Per-unit checksums over the run's bytes.  [off] is unit-aligned (the
   allocator aligns), so run-relative unit boundaries coincide with media
   units: a probe can verify exactly the block it loads. *)
let compute_unit_crcs ~unit bytes =
  let len = Bytes.length bytes in
  let n = (len + unit - 1) / unit in
  Array.init n (fun u ->
      let lo = u * unit in
      Crc32c.update Crc32c.empty bytes ~off:lo ~len:(min unit (len - lo)))

let build dev clock ~slots entries =
  if slots <= 0 then invalid_arg "Linear_table.build";
  let keys = Array.make slots Types.empty_key in
  let locs = Array.make slots 0 in
  let live = ref 0 in
  let insert (key, loc) =
    assert (not (Int64.equal key Types.empty_key));
    let h = Hash.mix64 key in
    let rec probe i =
      if Int64.equal keys.(i) key then locs.(i) <- loc
      else if Int64.equal keys.(i) Types.empty_key then begin
        keys.(i) <- key;
        locs.(i) <- loc;
        incr live
      end
      else probe ((i + 1) mod slots)
    in
    if !live >= slots then invalid_arg "Linear_table.build: overfull";
    Clock.advance clock (Cost_model.hash_ns +. Cost_model.dram_hit_ns);
    probe (Hash.slot_of ~hash:h ~slots)
  in
  List.iter insert entries;
  let bytes = Bytes.create (slots * Types.slot_bytes) in
  for i = 0 to slots - 1 do
    Bytes.set_int64_le bytes (i * Types.slot_bytes) keys.(i);
    Bytes.set_int64_le bytes ((i * Types.slot_bytes) + 8)
      (Int64.of_int locs.(i))
  done;
  let unit = (Device.profile dev).Cost_model.write_unit in
  (* checksum the staged run before it goes out: one streaming CRC pass *)
  Clock.advance clock
    (Cost_model.crc_ns_per_byte *. float_of_int (Bytes.length bytes));
  let unit_crcs = compute_unit_crcs ~unit bytes in
  let off = Device.alloc dev (slots * Types.slot_bytes) in
  Device.write_bytes dev clock ~off bytes;
  Device.persist dev clock ~off ~len:(slots * Types.slot_bytes);
  { dev; off; nslots = slots; live = !live; tag = 0; unit_crcs;
    layout = Hashed; fences = [||]; mph = None }

(* Ordered variant of the run format: the same dense 16 B-slot array, but
   slots are filled in ascending key order (no probing, no holes except
   trailing padding) and a DRAM fence array records the first key of each
   write unit.  A point get binary-searches the fences and touches exactly
   one unit — cost parity with the hashed probe — while [iter] and a
   [cursor] stream the run in key order. *)
let build_sorted dev clock entries =
  let entries = List.stable_sort (fun (a, _) (b, _) -> Types.key_compare a b) entries in
  (* later bindings of the same key override earlier ones, as in [build] *)
  let entries =
    let rec dedup = function
      | (k1, _) :: ((k2, _) :: _ as rest) when Int64.equal k1 k2 -> dedup rest
      | e :: rest -> e :: dedup rest
      | [] -> []
    in
    dedup entries
  in
  let n = List.length entries in
  Clock.advance clock (Cost_model.sort_per_key_ns *. float_of_int n);
  let slots = max 1 n in
  let bytes = Bytes.make (slots * Types.slot_bytes) '\000' in
  List.iteri
    (fun i (k, loc) ->
      assert (not (Int64.equal k Types.empty_key));
      Bytes.set_int64_le bytes (i * Types.slot_bytes) k;
      Bytes.set_int64_le bytes ((i * Types.slot_bytes) + 8) (Int64.of_int loc))
    entries;
  let unit = (Device.profile dev).Cost_model.write_unit in
  assert (unit mod Types.slot_bytes = 0);
  let slots_per_unit = unit / Types.slot_bytes in
  Clock.advance clock
    (Cost_model.crc_ns_per_byte *. float_of_int (Bytes.length bytes));
  let unit_crcs = compute_unit_crcs ~unit bytes in
  let fences =
    Array.init (Array.length unit_crcs) (fun u ->
        Bytes.get_int64_le bytes (u * slots_per_unit * Types.slot_bytes))
  in
  let off = Device.alloc dev (slots * Types.slot_bytes) in
  Device.write_bytes dev clock ~off bytes;
  Device.persist dev clock ~off ~len:(slots * Types.slot_bytes);
  { dev; off; nslots = slots; live = n; tag = 0; unit_crcs;
    layout = Sorted; fences; mph = None }

(* Perfect-hash variant of the run format: the same dense 16 B-slot array,
   but each key sits at the slot a minimal perfect hash assigns it, and the
   MPH (a DRAM mirror backed by a CRC-checked device artifact in its own
   allocation) replaces both the Bloom filter and the probe chain: a point
   get evaluates the MPH in DRAM and issues exactly one device read.  The
   slot read back holds the key, so membership is verified for free — a
   missing key hits some slot, mismatches, and answers [Absent]; it can
   never alias to a wrong value. *)
let build_mph dev clock ?(seed = 0) entries =
  (* later bindings of the same key override earlier ones, as in [build] *)
  let newest = Hashtbl.create (max 16 (2 * List.length entries)) in
  List.iter
    (fun (k, loc) ->
      assert (not (Int64.equal k Types.empty_key));
      Hashtbl.replace newest k loc)
    entries;
  let n = Hashtbl.length newest in
  let keys = Array.make (max 1 n) Types.empty_key in
  let i = ref 0 in
  Hashtbl.iter
    (fun k _ ->
      keys.(!i) <- k;
      incr i)
    newest;
  let keys = Array.sub keys 0 n in
  let idx, attempts = Mph.build ~seed keys in
  (* construction cost: per-key partition/bookkeeping plus the
     displacement search (one hash + one DRAM occupancy check each) *)
  Clock.advance clock
    ((Cost_model.mph_build_per_key_ns *. float_of_int n)
    +. ((Cost_model.hash_ns +. Cost_model.dram_hit_ns)
       *. float_of_int attempts));
  let slots = max 1 n in
  let bytes = Bytes.make (slots * Types.slot_bytes) '\000' in
  Array.iter
    (fun k ->
      let s = Mph.eval idx k in
      Bytes.set_int64_le bytes (s * Types.slot_bytes) k;
      Bytes.set_int64_le bytes
        ((s * Types.slot_bytes) + 8)
        (Int64.of_int (Hashtbl.find newest k)))
    keys;
  let unit = (Device.profile dev).Cost_model.write_unit in
  Clock.advance clock
    (Cost_model.crc_ns_per_byte *. float_of_int (Bytes.length bytes));
  let unit_crcs = compute_unit_crcs ~unit bytes in
  let off = Device.alloc dev (slots * Types.slot_bytes) in
  Device.write_bytes dev clock ~off bytes;
  Device.persist dev clock ~off ~len:(slots * Types.slot_bytes);
  (* the durable artifact goes out before the run is published, so a crash
     recovering from the manifest always finds both or neither *)
  let art = Mph.serialize idx in
  let alen = Bytes.length art in
  Clock.advance clock (Cost_model.crc_ns_per_byte *. float_of_int alen);
  let aoff = Device.alloc dev alen in
  Device.write_bytes dev clock ~off:aoff art;
  Device.persist dev clock ~off:aoff ~len:alen;
  { dev; off; nslots = slots; live = n; tag = 0; unit_crcs;
    layout = Mph; fences = [||];
    mph = Some { ma_idx = idx; ma_off = aoff; ma_len = alen } }

let slots t = t.nslots
let is_sorted t = t.layout = Sorted
let is_mph t = t.layout = Mph

let dram_bytes t =
  (8 * Array.length t.fences)
  + match t.mph with Some a -> Mph.dram_bytes a.ma_idx | None -> 0
let count t = t.live
let tag t = t.tag
let set_tag t v = t.tag <- v
let byte_size t = t.nslots * Types.slot_bytes

(* Does the media block holding run-relative unit [u] still carry the bytes
   the run was built with?  Uncharged: the caller prices the CRC pass. *)
let unit_intact_unpriced t u =
  let unit = (Device.profile t.dev).Cost_model.write_unit in
  let lo = u * unit in
  let len = min unit (byte_size t - lo) in
  (not (Device.poisoned_in t.dev ~off:(t.off + lo) ~len))
  && Int32.equal t.unit_crcs.(u)
       (Device.peek_crc32c t.dev ~off:(t.off + lo) ~len)

(* Largest fence index whose key is <= [key]; -1 if [key] precedes the run.
   Fences live in DRAM: each bisection step is charged as a key compare.
   [charge] is off for the silent path (DRAM-mirror callers price walks). *)
let fence_floor ?(clock = None) t key =
  let steps = ref 0 in
  let lo = ref 0 and hi = ref (Array.length t.fences - 1) and res = ref (-1) in
  while !lo <= !hi do
    incr steps;
    (match clock with
    | Some c -> Clock.advance c Cost_model.key_compare_ns
    | None -> ());
    let mid = (!lo + !hi) / 2 in
    if Types.key_compare t.fences.(mid) key <= 0 then begin
      res := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  (!res, !steps)

let slots_per_unit t = (Device.profile t.dev).Cost_model.write_unit / Types.slot_bytes

let get_sorted t clock key =
  let unit = (Device.profile t.dev).Cost_model.write_unit in
  let u, _ = fence_floor ~clock:(Some clock) t key in
  if u < 0 then Absent
  else begin
    (* verify the one unit the key can live in, then scan its slots *)
    Clock.advance clock (Cost_model.crc_ns_per_byte *. float_of_int unit);
    if not (unit_intact_unpriced t u) then Corrupted
    else begin
      let spu = slots_per_unit t in
      let stop = min t.nslots ((u + 1) * spu) in
      let rec scan i hint =
        if i >= stop then Absent
        else begin
          let off = slot_off t i in
          let k = Device.read_u64 t.dev clock ~off ~hint in
          if Int64.equal k key then
            Found
              (Int64.to_int
                 (Device.read_u64 t.dev clock ~off:(off + 8) ~hint:Adjacent))
          else if
            Int64.equal k Types.empty_key || Types.key_compare k key > 0
          then Absent
          else scan (i + 1) Device.Adjacent
        end
      in
      scan (u * spu) Device.Random
    end
  end

let get_hashed t clock key =
  let h = Hash.mix64 key in
  let unit = (Device.profile t.dev).Cost_model.write_unit in
  let start = Hash.slot_of ~hash:h ~slots:t.nslots in
  let rec probe i prev_line =
    let off = slot_off t i in
    let line = off / unit in
    let hint : Device.read_hint =
      if prev_line = line then Adjacent else Random
    in
    (* first touch of a block verifies its checksum before any slot in it
       is trusted (the block is in cache; the CRC pass is CPU cost) *)
    if line <> prev_line then
      Clock.advance clock (Cost_model.crc_ns_per_byte *. float_of_int unit);
    if line <> prev_line && not (unit_intact_unpriced t (line - (t.off / unit)))
    then Corrupted
    else begin
      let k = Device.read_u64 t.dev clock ~off ~hint in
      if Int64.equal k key then begin
        let loc = Device.read_u64 t.dev clock ~off:(off + 8) ~hint:Adjacent in
        Found (Int64.to_int loc)
      end
      else if Int64.equal k Types.empty_key then Absent
      else probe ((i + 1) mod t.nslots) line
    end
  in
  probe start (-1)

(* MPH get: the whole index walk happens in DRAM (bucket hash,
   displacement lookup, slot hash), the target unit is checksum-verified
   from the device's materialized bytes (CPU cost), and then exactly one
   device read fetches the 16 B slot.  The slot holds the key, so the read
   doubles as the membership check: a non-member key lands on some slot,
   mismatches, and answers [Absent] — never a wrong value. *)
let get_mph t clock key =
  match t.mph with
  | None -> Corrupted (* artifact lost and not yet rebuilt: fail closed *)
  | Some a ->
    let slot = Mph.eval_charged a.ma_idx clock key in
    let unit = (Device.profile t.dev).Cost_model.write_unit in
    let u = slot * Types.slot_bytes / unit in
    Clock.advance clock (Cost_model.crc_ns_per_byte *. float_of_int unit);
    if not (unit_intact_unpriced t u) then Corrupted
    else begin
      let b =
        Device.read_bytes t.dev clock ~off:(slot_off t slot)
          ~len:Types.slot_bytes ~hint:Random
      in
      let k = Bytes.get_int64_le b 0 in
      if Int64.equal k key then
        Found (Int64.to_int (Bytes.get_int64_le b 8))
      else Absent
    end

let get t clock key =
  match t.layout with
  | Hashed -> get_hashed t clock key
  | Sorted -> get_sorted t clock key
  | Mph -> get_mph t clock key

(* Whole-run verification: poison over the span plus every block checksum.
   Charges the CRC pass always, and the bulk device read only when asked —
   compaction piggybacks verification on the streaming read it already does
   ([iter]), while the standalone scrubber pays for its own read. *)
let slots_intact ?(charge_read = false) t clock =
  let len = byte_size t in
  if charge_read then
    Device.charge_read_bytes t.dev clock ~len ~hint:Bulk;
  Clock.advance clock (Cost_model.crc_ns_per_byte *. float_of_int len);
  (not (Device.poisoned_in t.dev ~off:t.off ~len))
  &&
  let ok = ref true in
  for u = 0 to Array.length t.unit_crcs - 1 do
    if !ok && not (unit_intact_unpriced t u) then ok := false
  done;
  !ok

(* Verify the durable MPH artifact (poison + magic + trailing CRC32C);
   vacuously true for non-MPH runs. *)
let mph_intact ?(charge_read = false) t clock =
  match t.mph with
  | None -> t.layout <> Mph
  | Some a ->
    if charge_read then
      Device.charge_read_bytes t.dev clock ~len:a.ma_len ~hint:Bulk;
    Clock.advance clock (Cost_model.crc_ns_per_byte *. float_of_int a.ma_len);
    (not (Device.poisoned_in t.dev ~off:a.ma_off ~len:a.ma_len))
    && Mph.verify (Device.peek_bytes t.dev ~off:a.ma_off ~len:a.ma_len)

let intact ?charge_read t clock =
  slots_intact ?charge_read t clock && mph_intact ?charge_read t clock

(* Targeted repair for an MPH run whose slots verify but whose artifact
   does not: re-serialize the DRAM mirror into a fresh allocation and drop
   the damaged one (dealloc clears its poison).  The scrubber uses this so
   artifact rot costs one small write instead of a full shard rebuild. *)
let rebuild_mph_artifact t clock =
  match t.mph with
  | None -> ()
  | Some a ->
    let art = Mph.serialize a.ma_idx in
    let alen = Bytes.length art in
    Clock.advance clock (Cost_model.crc_ns_per_byte *. float_of_int alen);
    let aoff = Device.alloc t.dev alen in
    Device.write_bytes t.dev clock ~off:aoff art;
    Device.persist t.dev clock ~off:aoff ~len:alen;
    Device.dealloc t.dev ~off:a.ma_off ~len:a.ma_len;
    a.ma_off <- aoff

let iter t clock f =
  let len = t.nslots * Types.slot_bytes in
  let bytes = Device.read_bytes t.dev clock ~off:t.off ~len ~hint:Bulk in
  for i = 0 to t.nslots - 1 do
    let k = Bytes.get_int64_le bytes (i * Types.slot_bytes) in
    if not (Int64.equal k Types.empty_key) then begin
      let loc = Int64.to_int (Bytes.get_int64_le bytes ((i * Types.slot_bytes) + 8)) in
      f k loc
    end
  done

let media_range t = (t.off, byte_size t)

let mph_media_range t =
  match t.mph with Some a -> Some (a.ma_off, a.ma_len) | None -> None

let free t =
  Device.dealloc t.dev ~off:t.off ~len:(byte_size t);
  match t.mph with
  | Some a -> Device.dealloc t.dev ~off:a.ma_off ~len:a.ma_len
  | None -> ()

(* Silent accessors: no device-cost charging.  Used by stores that keep a
   DRAM copy of a table (Pmem-LSM-PinK) and charge DRAM costs themselves.
   [get_silent] also reports the probe count so callers can price the walk.
   The DRAM mirror is not subject to media faults, so these do not verify. *)

let get_silent t key =
  match t.layout with
  | Mph ->
      (match t.mph with
      | None -> (None, 0)
      | Some a ->
          let slot = Mph.eval a.ma_idx key in
          let off = slot_off t slot in
          if Int64.equal (Device.peek_u64 t.dev ~off) key then
            (Some (Int64.to_int (Device.peek_u64 t.dev ~off:(off + 8))), 1)
          else (None, 1))
  | Sorted ->
      let u, steps = fence_floor t key in
      if u < 0 then (None, steps)
      else begin
        let spu = slots_per_unit t in
        let stop = min t.nslots ((u + 1) * spu) in
        let rec scan i steps =
          if i >= stop then (None, steps)
          else begin
            let off = slot_off t i in
            let k = Device.peek_u64 t.dev ~off in
            if Int64.equal k key then
              (Some (Int64.to_int (Device.peek_u64 t.dev ~off:(off + 8))), steps + 1)
            else if Int64.equal k Types.empty_key || Types.key_compare k key > 0
            then (None, steps + 1)
            else scan (i + 1) (steps + 1)
          end
        in
        scan (u * spu) steps
      end
  | Hashed ->
      let h = Hash.mix64 key in
      let start = Hash.slot_of ~hash:h ~slots:t.nslots in
      let rec probe i steps =
        let off = slot_off t i in
        let k = Device.peek_u64 t.dev ~off in
        if Int64.equal k key then begin
          let loc = Device.peek_u64 t.dev ~off:(off + 8) in
          (Some (Int64.to_int loc), steps + 1)
        end
        else if Int64.equal k Types.empty_key then (None, steps + 1)
        else probe ((i + 1) mod t.nslots) (steps + 1)
      in
      probe start 0

let iter_silent t f =
  for i = 0 to t.nslots - 1 do
    let off = slot_off t i in
    let k = Device.peek_u64 t.dev ~off in
    if not (Int64.equal k Types.empty_key) then begin
      let loc = Int64.to_int (Device.peek_u64 t.dev ~off:(off + 8)) in
      f k loc
    end
  done

(* Ordered cursor over a Sorted run.  Lazy: units are bulk-read and
   checksum-verified one at a time as the cursor crosses into them, so a
   short scan touching one unit pays for one unit.  Entries are served
   from the unit's DRAM copy at [scan_per_entry_ns] each.  Tombstones and
   quarantine markers ARE emitted — shadowing and suppression are the
   merge layer's job.  A failing unit is fail-stop: the cursor answers
   [`Corrupt] from then on. *)
type cursor = {
  ct : t;
  cclock : Clock.t;
  start : Types.key;
  mutable i : int; (* next slot to serve *)
  mutable buf : Bytes.t; (* current unit's bytes *)
  mutable buf_unit : int; (* unit index of [buf]; -1 = none loaded *)
  mutable positioned : bool; (* past the < start prefix of the start unit *)
  mutable dead : bool;
}

let cursor t clock ~start =
  if t.layout <> Sorted then invalid_arg "Linear_table.cursor: unsorted run";
  let u, _ = fence_floor ~clock:(Some clock) t start in
  let spu = slots_per_unit t in
  { ct = t;
    cclock = clock;
    start;
    i = (if u <= 0 then 0 else u * spu);
    buf = Bytes.empty;
    buf_unit = -1;
    positioned = false;
    dead = false }

let rec cursor_next c =
  if c.dead then `Corrupt
  else if c.i >= c.ct.nslots then `End
  else begin
    let t = c.ct in
    let unit = (Device.profile t.dev).Cost_model.write_unit in
    let u = c.i * Types.slot_bytes / unit in
    if u <> c.buf_unit then begin
      Clock.advance c.cclock (Cost_model.crc_ns_per_byte *. float_of_int unit);
      if not (unit_intact_unpriced t u) then begin
        c.dead <- true;
        `Corrupt
      end
      else begin
        let lo = u * unit in
        let len = min unit (byte_size t - lo) in
        c.buf <-
          Device.read_bytes t.dev c.cclock ~off:(t.off + lo) ~len ~hint:Bulk;
        c.buf_unit <- u;
        cursor_serve c
      end
    end
    else cursor_serve c
  end

and cursor_serve c =
  let t = c.ct in
  let unit = (Device.profile t.dev).Cost_model.write_unit in
  let rel = (c.i * Types.slot_bytes) - (c.buf_unit * unit) in
  let k = Bytes.get_int64_le c.buf rel in
  Clock.advance c.cclock Cost_model.scan_per_entry_ns;
  c.i <- c.i + 1;
  if Int64.equal k Types.empty_key then `End (* dense: only trailing padding *)
  else if (not c.positioned) && Types.key_compare k c.start < 0 then
    cursor_next c
  else begin
    c.positioned <- true;
    `Entry (k, Int64.to_int (Bytes.get_int64_le c.buf (rel + 8)))
  end
