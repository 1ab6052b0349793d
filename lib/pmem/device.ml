type read_hint = Random | Adjacent | Bulk

type pending = { p_off : int; p_undo : Bytes.t }

(* Read-side service as a leaky bucket: [backlog] is outstanding service
   time, drained at rate 1 (one service-ns per simulated ns).  A read waits
   only for backlog beyond a small burst allowance, so concurrent threads
   interleave (the device pipelines reads) while sustained oversubscription
   still throttles to the aggregate random-read rate.  A plain FIFO server
   would be wrong for reads: the discrete-event scheduler runs a whole
   multi-access operation atomically, and its later accesses would
   head-of-line-block every other thread. *)
type server = { mutable backlog : float; mutable last : float }

let burst_allowance_ns = 3_000.0

(* Writes use the same bucket shape with a small elastic buffer (the iMC's
   write-pending queue): a writer stalls for the backlog beyond that
   capacity, so write floods self-throttle to the media rate — the
   back-pressure that bounds Fig. 16's read-tail spikes.  Crucially the
   wait is NOT deducted from the backlog (the waiting writer's own later
   arrivals leak it through elapsed time); deducting it would let N
   concurrent writers drain the shared bucket N times too fast. *)
let wpq_cap_ns = 6_000.0

let leak srv ~now =
  let elapsed = Float.max 0.0 (now -. srv.last) in
  srv.backlog <- Float.max 0.0 (srv.backlog -. elapsed);
  srv.last <- Float.max srv.last now

let serve srv ~now ~occupancy ~allowance =
  leak srv ~now;
  let wait = Float.max 0.0 (srv.backlog +. occupancy -. allowance) in
  srv.backlog <- srv.backlog +. occupancy;
  wait

type t = {
  prof : Cost_model.profile;
  mutable mem : Bytes.t;
  mutable brk : int;
  st : Stats.t;
  mutable pending : pending list; (* newest first *)
  read_srv : server;
  write_srv : server;
  mutable threads : int;
  mutable persist_hook : (unit -> unit) option;
  mutable tear : (int -> bool) option;
  poison : (int, unit) Hashtbl.t; (* unit-aligned offsets with media errors *)
}

let create ?(capacity = 4 * 1024 * 1024) prof =
  { prof;
    mem = Bytes.make capacity '\000';
    brk = 0;
    st = Stats.create ();
    pending = [];
    read_srv = { backlog = 0.0; last = 0.0 };
    write_srv = { backlog = 0.0; last = 0.0 };
    threads = 1;
    persist_hook = None;
    tear = None;
    poison = Hashtbl.create 8 }

let profile t = t.prof
let stats t = t.st

let set_persist_hook t hook = t.persist_hook <- hook
let set_tear t f = t.tear <- f
let tear t = t.tear

(* Fired at the START of every persist-class operation, so a hook that
   raises models a crash just before the Nth durable write: everything
   the operation was about to make durable is still volatile. *)
let fire_persist_hook t =
  match t.persist_hook with None -> () | Some hook -> hook ()
let set_active_threads t n = t.threads <- max 1 n
let active_threads t = t.threads

let grow_to t needed =
  let cap = ref (Bytes.length t.mem) in
  while !cap < needed do
    cap := !cap * 2
  done;
  if !cap > Bytes.length t.mem then begin
    let bigger = Bytes.make !cap '\000' in
    Bytes.blit t.mem 0 bigger 0 t.brk;
    t.mem <- bigger
  end

let align_up v unit = (v + unit - 1) / unit * unit

let alloc t len =
  let off = align_up t.brk t.prof.Cost_model.write_unit in
  grow_to t (off + len);
  t.brk <- off + len;
  t.st.Stats.live_bytes <- t.st.Stats.live_bytes +. float_of_int len;
  off

(* Media faults.  A poisoned write unit models an uncorrectable media error:
   any load touching it returns poison instead of data.  The registry is
   keyed by unit-aligned offset and is independent of the materialized byte
   space, so accounting-only ranges (the value log's virtual addresses) can
   be poisoned too.  Poison is damage to the media, not volatile state: it
   survives [crash] and is cleared only by rewriting the whole unit
   ([charge_persist_range] with full coverage) or freeing the range. *)

let iter_units t ~off ~len f =
  if len > 0 then begin
    let unit = t.prof.Cost_model.write_unit in
    let u0 = off / unit and u1 = (off + len - 1) / unit in
    for u = u0 to u1 do
      f (u * unit)
    done
  end

let inject_poison t ~off ~len =
  iter_units t ~off ~len (fun u -> Hashtbl.replace t.poison u ())

let clear_poison t ~off ~len =
  if Hashtbl.length t.poison > 0 then
    iter_units t ~off ~len (fun u -> Hashtbl.remove t.poison u)

let poisoned_in t ~off ~len =
  Hashtbl.length t.poison > 0
  &&
  let hit = ref false in
  iter_units t ~off ~len (fun u -> if Hashtbl.mem t.poison u then hit := true);
  !hit

let flip_bit t ~off ~bit =
  if off < 0 || off >= t.brk then invalid_arg "Device.flip_bit";
  let b = Char.code (Bytes.get t.mem off) in
  Bytes.set t.mem off (Char.chr (b lxor (1 lsl (bit land 7))))

let dealloc t ~off ~len =
  clear_poison t ~off ~len;
  t.st.Stats.live_bytes <- t.st.Stats.live_bytes -. float_of_int len

let used_bytes t = t.st.Stats.live_bytes

let queue_read t clock ~occupancy ~latency =
  let now = Clock.now clock in
  let rwait =
    serve t.read_srv ~now ~occupancy ~allowance:burst_allowance_ns
  in
  (* reads have priority over queued writes but still wait for the units in
     flight: bounded pressure from the write queue *)
  leak t.write_srv ~now;
  let wpressure = Float.min t.write_srv.backlog wpq_cap_ns in
  let wait = Float.max rwait wpressure in
  t.st.Stats.read_wait_ns <- t.st.Stats.read_wait_ns +. wait;
  Clock.advance clock (wait +. latency)

let queue_write t clock ~occupancy ~latency =
  let wait =
    serve t.write_srv ~now:(Clock.now clock) ~occupancy ~allowance:wpq_cap_ns
  in
  t.st.Stats.write_wait_ns <- t.st.Stats.write_wait_ns +. wait;
  Clock.advance clock (wait +. latency)

let read_bw t =
  t.prof.Cost_model.read_bw_gbps *. Cost_model.read_bw_scale ~threads:t.threads

let write_bw t =
  t.prof.Cost_model.write_bw_gbps
  *. Cost_model.write_bw_scale ~threads:t.threads

(* Stores: copied into the byte space immediately, with an undo record so a
   crash before [persist] can revert them.  Only CPU copy cost is charged;
   the media cost is charged at persist time. *)

let write_bytes t clock ~off src =
  let len = Bytes.length src in
  if len > 0 then begin
    grow_to t (off + len);
    let undo = Bytes.sub t.mem off len in
    Bytes.blit src 0 t.mem off len;
    t.pending <- { p_off = off; p_undo = undo } :: t.pending;
    t.st.Stats.write_ops <- t.st.Stats.write_ops + 1;
    Clock.advance clock
      (Cost_model.cpu_op_ns /. 4.0
      +. (Cost_model.memcpy_ns_per_byte *. float_of_int len))
  end

let write_u64 t clock ~off v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  write_bytes t clock ~off b

let intersects p ~off ~len =
  let plen = Bytes.length p.p_undo in
  p.p_off < off + len && off < p.p_off + plen

let charge_persist_range t clock ~off ~len =
  let unit = t.prof.Cost_model.write_unit in
  let span = Cost_model.aligned_span ~unit ~off ~len in
  (* Edge units not fully covered by the write require a media-level
     read-modify-write. *)
  let head_partial = off mod unit <> 0 in
  let tail_partial = (off + len) mod unit <> 0 in
  let covered_partial_twice =
    (* whole range inside a single unit: only one RMW *)
    head_partial && tail_partial && span = unit
  in
  let rmw_units =
    (if head_partial then 1 else 0)
    + (if tail_partial && not covered_partial_twice then 1 else 0)
  in
  let rmw_bytes = rmw_units * unit in
  t.st.Stats.user_write_bytes <-
    t.st.Stats.user_write_bytes +. float_of_int len;
  t.st.Stats.media_write_bytes <-
    t.st.Stats.media_write_bytes +. float_of_int span;
  t.st.Stats.rmw_read_bytes <-
    t.st.Stats.rmw_read_bytes +. float_of_int rmw_bytes;
  t.st.Stats.media_read_bytes <-
    t.st.Stats.media_read_bytes +. float_of_int rmw_bytes;
  t.st.Stats.persist_ops <- t.st.Stats.persist_ops + 1;
  if rmw_bytes > 0 then begin
    let occ = float_of_int rmw_bytes /. read_bw t in
    queue_read t clock ~occupancy:occ ~latency:t.prof.Cost_model.read_latency_ns
  end;
  (* rewriting a whole unit re-ECCs it: fully covered units are healed *)
  if Hashtbl.length t.poison > 0 then
    iter_units t ~off ~len (fun u ->
        if off <= u && off + len >= u + unit then Hashtbl.remove t.poison u);
  let occupancy = float_of_int span /. write_bw t in
  (* service time lives in the bucket (the serve wait covers it under
     contention); the caller sees only the post-fence latency *)
  queue_write t clock ~occupancy ~latency:t.prof.Cost_model.write_latency_ns

let persist t clock ~off ~len =
  if len > 0 then begin
    fire_persist_hook t;
    charge_persist_range t clock ~off ~len;
    t.pending <- List.filter (fun p -> not (intersects p ~off ~len)) t.pending
  end

let read_cost t clock ~len ~hint =
  let prof = t.prof in
  t.st.Stats.read_ops <- t.st.Stats.read_ops + 1;
  t.st.Stats.media_read_bytes <-
    t.st.Stats.media_read_bytes +. float_of_int len;
  match hint with
  | Random ->
    queue_read t clock ~occupancy:prof.Cost_model.random_read_occupancy_ns
      ~latency:prof.Cost_model.read_latency_ns
  | Adjacent ->
    (* Same media line as the previous access: served from the on-DIMM
       buffer / CPU cache; no device occupancy. *)
    Clock.advance clock (prof.Cost_model.read_latency_ns *. 0.2)
  | Bulk ->
    let occ = float_of_int len /. read_bw t in
    queue_read t clock ~occupancy:occ ~latency:prof.Cost_model.read_latency_ns

let read_u64 t clock ~off ~hint =
  read_cost t clock ~len:8 ~hint;
  Bytes.get_int64_le t.mem off

let read_bytes t clock ~off ~len ~hint =
  read_cost t clock ~len ~hint;
  Bytes.sub t.mem off len

(* Accounting-only paths. *)

let charge_append t clock ~len =
  fire_persist_hook t;
  t.st.Stats.user_write_bytes <-
    t.st.Stats.user_write_bytes +. float_of_int len;
  t.st.Stats.media_write_bytes <-
    t.st.Stats.media_write_bytes +. float_of_int len;
  t.st.Stats.persist_ops <- t.st.Stats.persist_ops + 1;
  let occupancy = float_of_int len /. write_bw t in
  queue_write t clock ~occupancy ~latency:t.prof.Cost_model.write_latency_ns

let charge_write_random t clock ~len =
  fire_persist_hook t;
  (* Model an isolated store at an arbitrary address: worst-case alignment. *)
  charge_persist_range t clock ~off:1 ~len

let charge_write_at t clock ~off ~len =
  if len > 0 then begin
    fire_persist_hook t;
    charge_persist_range t clock ~off ~len
  end

let charge_read_bytes t clock ~len ~hint = read_cost t clock ~len ~hint

let quiesce_at t =
  Float.max
    (t.write_srv.last +. t.write_srv.backlog)
    (t.read_srv.last +. t.read_srv.backlog)

let peek_u64 t ~off = Bytes.get_int64_le t.mem off
let peek_bytes t ~off ~len = Bytes.sub t.mem off len
let peek_crc32c t ~off ~len = Crc32c.update Crc32c.empty t.mem ~off ~len

(* Crash semantics: unpersisted stores normally revert wholesale.  With a
   tear function installed, survival is decided per media write unit —
   modelling the 256 B (write_unit) atomicity of the media: a unit either
   reached the media before power failed or it did not.  The decision is
   memoised per unit so overlapping pendings see one coherent outcome;
   reverted units restore undos newest-first (as in the untorn path) so the
   final bytes are the oldest pre-image. *)
let crash t =
  let revert_unit =
    match t.tear with
    | None -> fun _ -> true
    | Some keep ->
      let memo = Hashtbl.create 16 in
      fun u ->
        (match Hashtbl.find_opt memo u with
        | Some r -> r
        | None ->
          let r = not (keep u) in
          Hashtbl.add memo u r;
          r)
  in
  let unit = t.prof.Cost_model.write_unit in
  List.iter
    (fun p ->
      let len = Bytes.length p.p_undo in
      let u0 = p.p_off / unit and u1 = (p.p_off + len - 1) / unit in
      for u = u0 to u1 do
        if revert_unit (u * unit) then begin
          let lo = max p.p_off (u * unit) in
          let hi = min (p.p_off + len) ((u + 1) * unit) in
          Bytes.blit p.p_undo (lo - p.p_off) t.mem lo (hi - lo)
        end
      done)
    t.pending;
  t.pending <- []

let pending_ranges t =
  List.map (fun p -> (p.p_off, Bytes.length p.p_undo)) t.pending
