(* Store wrappers the benchmark drives every store through.

   The checking layer is always on: it counts calls per kind, tallies the
   stage that answered each read, counts reads that found nothing, and
   hands scan results and fresh writes to the workload's oracle hooks.
   The timing layer is on only in traced runs: it times each call from
   outside with a monotonic nanosecond clock into integer accumulators,
   so it never allocates and never touches a simulated clock — traced and
   untraced runs compute the same modelled numbers. *)

module Si = Kv_common.Store_intf
module Types = Kv_common.Types

let now () = Int64.to_int (Monotonic_clock.now ())

(* -- integer log histogram of wall nanoseconds ------------------------ *)

(* Values below 64 get exact buckets; above, 8 sub-buckets per octave
   (12.5 % resolution), up to 2^62. *)
let nbuckets = 64 + (57 * 8)

let bucket v =
  if v < 64 then max v 0
  else begin
    let p = ref 6 in
    while v lsr (!p + 1) > 0 do incr p done;
    64 + ((!p - 6) * 8) + ((v lsr (!p - 3)) land 7)
  end

let bucket_top i =
  if i < 64 then float_of_int i
  else
    let p = 6 + ((i - 64) / 8) and sub = (i - 64) mod 8 in
    float_of_int ((8 + sub + 1) lsl (p - 3))

type timer = {
  mutable calls : int;
  mutable busy_ns : int;
  hist : int array;
}

let timer () = { calls = 0; busy_ns = 0; hist = Array.make nbuckets 0 }

let record tm dt =
  tm.calls <- tm.calls + 1;
  tm.busy_ns <- tm.busy_ns + dt;
  let b = bucket dt in
  tm.hist.(b) <- tm.hist.(b) + 1

let copy_timer tm = { tm with hist = Array.copy tm.hist }

let diff_timer ~after ~before =
  { calls = after.calls - before.calls;
    busy_ns = after.busy_ns - before.busy_ns;
    hist = Array.mapi (fun i n -> n - before.hist.(i)) after.hist }

(* Upper bucket bound under which [p] % of the calls fall; 0 when empty. *)
let percentile tm p =
  if tm.calls = 0 then 0.0
  else begin
    let target =
      max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int tm.calls)))
    in
    let acc = ref 0 and i = ref 0 in
    while !acc + tm.hist.(!i) < target do
      acc := !acc + tm.hist.(!i);
      incr i
    done;
    bucket_top !i
  end

(* One timer per store entry point, shared by every wrapped store in the
   process (a cluster's nodes pool their timings). *)
type timers = {
  t_read : timer;
  t_write : timer;  (* [write] and [write_batch] calls *)
  t_scan : timer;
  t_recover : timer;
}

let timers =
  { t_read = timer (); t_write = timer (); t_scan = timer ();
    t_recover = timer () }

let snapshot_timers () =
  { t_read = copy_timer timers.t_read;
    t_write = copy_timer timers.t_write;
    t_scan = copy_timer timers.t_scan;
    t_recover = copy_timer timers.t_recover }

let diff_timers ~after ~before =
  { t_read = diff_timer ~after:after.t_read ~before:before.t_read;
    t_write = diff_timer ~after:after.t_write ~before:before.t_write;
    t_scan = diff_timer ~after:after.t_scan ~before:before.t_scan;
    t_recover = diff_timer ~after:after.t_recover ~before:before.t_recover }

(* Bracket a timed call: [tic] reads the clock, [toc] records the
   elapsed time. *)
let tic = now

let toc tm t0 = record tm (now () - t0)

(* -- per-store call counts -------------------------------------------- *)

let nstages = 9

let stage_index = function
  | Si.Memtable -> 0
  | Si.Cache -> 1
  | Si.Abi -> 2
  | Si.Dump -> 3
  | Si.Upper -> 4
  | Si.Last -> 5
  | Si.Index -> 6
  | Si.Miss -> 7
  | Si.Corrupt -> 8

type counts = {
  mutable gets : int;
  mutable misses : int;     (* reads that answered no live location *)
  mutable puts : int;       (* primitive writes, batches expanded *)
  mutable user_bytes : int; (* key + value bytes of those writes *)
  mutable scans : int;
  mutable bad_scans : int;  (* scans the oracle hook rejected *)
  by_stage : int array;
}

let counts () =
  { gets = 0; misses = 0; puts = 0; user_bytes = 0; scans = 0; bad_scans = 0;
    by_stage = Array.make nstages 0 }

let copy_counts c = { c with by_stage = Array.copy c.by_stage }

let diff_counts ~after ~before =
  { gets = after.gets - before.gets;
    misses = after.misses - before.misses;
    puts = after.puts - before.puts;
    user_bytes = after.user_bytes - before.user_bytes;
    scans = after.scans - before.scans;
    bad_scans = after.bad_scans - before.bad_scans;
    by_stage = Array.mapi (fun i n -> n - before.by_stage.(i)) after.by_stage }

let sum_counts cs =
  List.fold_left
    (fun acc c ->
      { gets = acc.gets + c.gets;
        misses = acc.misses + c.misses;
        puts = acc.puts + c.puts;
        user_bytes = acc.user_bytes + c.user_bytes;
        scans = acc.scans + c.scans;
        bad_scans = acc.bad_scans + c.bad_scans;
        by_stage = Array.mapi (fun i n -> n + c.by_stage.(i)) acc.by_stage })
    (counts ()) cs

(* Oracle hooks: [on_write] sees every key written (after the store
   applied it), [check_scan] judges every scan result. *)
type hooks = {
  on_write : Types.key -> unit;
  check_scan :
    start:Types.key -> limit:int -> (Types.key * Types.loc) list -> bool;
}

let no_hooks =
  { on_write = (fun _ -> ()); check_scan = (fun ~start:_ ~limit:_ _ -> true) }

let key_bytes = 8

let note_write c hooks key spec =
  c.puts <- c.puts + 1;
  c.user_bytes <- c.user_bytes + key_bytes + Si.spec_vlen spec;
  hooks.on_write key

let wrap ~trace ~(c : counts) ?(hooks = no_hooks) (module S : Si.STORE) :
    Si.store =
  (module struct
    include S

    let read clock key =
      let r =
        if trace then begin
          let t0 = tic () in
          let r = S.read clock key in
          toc timers.t_read t0;
          r
        end
        else S.read clock key
      in
      c.gets <- c.gets + 1;
      let s = stage_index r.Si.stage in
      c.by_stage.(s) <- c.by_stage.(s) + 1;
      (match r.Si.loc with None -> c.misses <- c.misses + 1 | Some _ -> ());
      r

    let write clock key spec =
      if trace then begin
        let t0 = tic () in
        S.write clock key spec;
        toc timers.t_write t0
      end
      else S.write clock key spec;
      note_write c hooks key spec

    let write_batch clock items =
      if trace then begin
        let t0 = tic () in
        S.write_batch clock items;
        toc timers.t_write t0
      end
      else S.write_batch clock items;
      List.iter (fun (key, spec) -> note_write c hooks key spec) items

    let scan clock ~start ~limit =
      let r =
        if trace then begin
          let t0 = tic () in
          let r = S.scan clock ~start ~limit in
          toc timers.t_scan t0;
          r
        end
        else S.scan clock ~start ~limit
      in
      c.scans <- c.scans + 1;
      if not (hooks.check_scan ~start ~limit r) then
        c.bad_scans <- c.bad_scans + 1;
      r

    let recover clock =
      if trace then begin
        let t0 = tic () in
        S.recover clock;
        toc timers.t_recover t0
      end
      else S.recover clock
  end)
