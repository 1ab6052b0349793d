(* Seeded media-fault sweep: the silent-corruption counterpart to the
   crash {!Sweep}.  For every store it injects bit rot and poisoned media
   units into persisted value-log records and asserts the integrity
   contract: a read of an affected key answers either the correct value or
   an explicit [Corrupt] — never wrong data and never a silent miss.
   Stores that declare the [Scrub] fault site additionally must detect
   every injected log fault in one full-budget scrub pass, contain the
   affected keys, and serve them again after a superseding write. *)

module Clock = Pmem_sim.Clock
module Device = Pmem_sim.Device
module Types = Kv_common.Types
module Vlog = Kv_common.Vlog
module Store_intf = Kv_common.Store_intf
module Fault_point = Kv_common.Fault_point
module Rng = Workload.Rng
module Keyspace = Workload.Keyspace

type verdict = {
  m_injected : int;       (** faults injected across all seeds *)
  m_corrupt_reads : int;  (** reads that answered an explicit [Corrupt] *)
  m_scrub_detected : int; (** scrub-pass detections (scrubbing stores) *)
  m_recovered : int;      (** victims serving again after a fresh write *)
  m_violations : string list;
}

let passed v = v.m_violations = []

(* Seeded in-place shuffle (Fisher–Yates) so victim choice is reproducible. *)
let shuffle rng arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(* The [nth] injected fault alternates an uncorrectable media error over
   the record's units (even) with bit rot ECC missed (odd), which only the
   record checksum can catch. *)
let inject_log_fault vlog dev ~nth loc =
  if nth land 1 = 0 then begin
    let off, len = Vlog.entry_range vlog loc in
    Device.inject_poison dev ~off ~len
  end
  else Vlog.corrupt_entry vlog loc

let run_seed ~make ~ops ~universe ~faults ~seed ~violations =
  let violate fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  let store = make () in
  let vlog = Store_intf.vlog store in
  let dev = Store_intf.device store in
  let rng = Rng.create ~seed in
  let clock = Clock.create () in
  let scratch = Clock.create () in
  (* newest completed op per key: (log location, is_delete) *)
  let newest : (Types.key, int * bool) Hashtbl.t = Hashtbl.create universe in
  for _ = 1 to ops do
    let key = Keyspace.key_of_index (Rng.int rng universe) in
    match Rng.int rng 10 with
    | 0 ->
      Store_intf.delete store clock key;
      Hashtbl.replace newest key (Vlog.length vlog - 1, true)
    | _ ->
      Store_intf.write store clock key (Store_intf.Sized 24);
      Hashtbl.replace newest key (Vlog.length vlog - 1, false)
  done;
  Store_intf.flush store clock;
  (* victims: live keys whose newest record is persisted *)
  let live =
    Hashtbl.fold
      (fun key (loc, deleted) acc ->
        if
          (not deleted) && loc >= Vlog.head vlog && loc < Vlog.persisted vlog
        then (key, loc) :: acc
        else acc)
      newest []
    |> List.sort compare |> Array.of_list
  in
  shuffle rng live;
  let nvict = min faults (Array.length live) in
  let victims = Array.sub live 0 nvict in
  Array.iteri (fun nth (_, loc) -> inject_log_fault vlog dev ~nth loc) victims;
  (* poison covers whole 256 B units, so records adjacent to a victim can
     be collateral damage: classify every key by whether its newest record
     still verifies, not by victim membership *)
  let corrupt_reads = ref 0 in
  let check_key ~context key =
    let affected =
      match Hashtbl.find_opt newest key with
      | Some (loc, false)
        when loc >= Vlog.head vlog && loc < Vlog.persisted vlog ->
        not (Vlog.intact vlog scratch loc)
      | _ -> false
    in
    let expect_present =
      match Hashtbl.find_opt newest key with
      | Some (_, deleted) -> not deleted
      | None -> false
    in
    let r = Store_intf.read store clock key in
    if affected then begin
      match r.Store_intf.loc with
      | Some _ ->
        violate "%s: seed %d key %Ld: served a corrupted record" context seed
          key
      | None ->
        if r.Store_intf.stage = Store_intf.Corrupt then incr corrupt_reads
        else
          violate
            "%s: seed %d key %Ld: corruption surfaced as a silent miss"
            context seed key
    end
    else if expect_present && r.Store_intf.loc = None then
      violate "%s: seed %d key %Ld: healthy key lost" context seed key
    else if (not expect_present) && r.Store_intf.loc <> None then
      violate "%s: seed %d key %Ld: deleted key resurrected" context seed key
  in
  for i = 0 to universe - 1 do
    check_key ~context:"post-inject" (Keyspace.key_of_index i)
  done;
  (* scrubbing stores: one unbounded pass must find every injected log
     fault, and a superseding write must bring each victim back *)
  let scrub_detected = ref 0 in
  let recovered = ref 0 in
  if List.mem Fault_point.Scrub (Store_intf.fault_points store) then begin
    let report = Store_intf.scrub store clock ~budget_bytes:max_int in
    scrub_detected := report.Store_intf.sr_detected;
    if report.Store_intf.sr_detected < nvict then
      violate
        "scrub: seed %d detected %d of %d injected log faults" seed
        report.Store_intf.sr_detected nvict;
    for i = 0 to universe - 1 do
      check_key ~context:"post-scrub" (Keyspace.key_of_index i)
    done;
    (match Store_intf.check_invariants store with
    | Ok () -> ()
    | Error msg -> violate "post-scrub: seed %d invariant violated: %s" seed msg);
    Array.iter
      (fun (key, _) ->
        Store_intf.write store clock key (Store_intf.Sized 24);
        let r = Store_intf.read store clock key in
        if r.Store_intf.loc <> None then incr recovered
        else
          violate
            "post-rewrite: seed %d key %Ld still unreadable after a fresh \
             write"
            seed key)
      victims
  end;
  (nvict, !corrupt_reads, !scrub_detected, !recovered)

let run_store ~make ?(seeds = [ 1; 11; 101 ]) ?(ops = 3_000)
    ?(universe = 300) ?(faults = 12) () =
  let violations = ref [] in
  let injected = ref 0 in
  let corrupt_reads = ref 0 in
  let scrub_detected = ref 0 in
  let recovered = ref 0 in
  List.iter
    (fun seed ->
      let n, c, d, r =
        run_seed ~make ~ops ~universe ~faults ~seed ~violations
      in
      injected := !injected + n;
      corrupt_reads := !corrupt_reads + c;
      scrub_detected := !scrub_detected + d;
      recovered := !recovered + r)
    seeds;
  { m_injected = !injected;
    m_corrupt_reads = !corrupt_reads;
    m_scrub_detected = !scrub_detected;
    m_recovered = !recovered;
    m_violations = List.rev !violations }

(* ChameleonDB-specific artifact faults (table runs and manifest floor
   records are its own formats, so this leg drives the concrete store):
   a poisoned run must fail probes closed and be rebuilt from the log by
   scrub; a poisoned floor record must push recovery to its conservative
   full-log replay, then be repaired in place. *)
let run_chameleon_artifacts ?(ops = 3_000) ?(universe = 300) () =
  let module Store = Chameleondb.Store in
  let violations = ref [] in
  let violate fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  let db = Store.create () in
  let dev = Store.device db in
  let rng = Rng.create ~seed:7 in
  let clock = Clock.create () in
  let present : (Types.key, bool) Hashtbl.t = Hashtbl.create universe in
  for _ = 1 to ops do
    let key = Keyspace.key_of_index (Rng.int rng universe) in
    if Rng.int rng 10 = 0 then begin
      Store.delete db clock key;
      Hashtbl.replace present key false
    end
    else begin
      Store.write db clock key (Store_intf.Sized 24);
      Hashtbl.replace present key true
    end
  done;
  Store.flush_all db clock;
  Store.wait_background db clock;
  let sweep context =
    for i = 0 to universe - 1 do
      let key = Keyspace.key_of_index i in
      let expect =
        Option.value ~default:false (Hashtbl.find_opt present key)
      in
      let r = Store.read db clock key in
      if r.Store_intf.stage = Store_intf.Corrupt then
        violate "%s: key %Ld answered Corrupt" context key
      else if expect <> (r.Store_intf.loc <> None) then
        violate "%s: key %Ld expected %s" context key
          (if expect then "present" else "absent")
    done
  in
  (* table-run fault: poison one persistent run, then scrub-repair *)
  (match
     Array.find_map
       (fun sh ->
         match Chameleondb.Shard.persistent_tables sh with
         | tbl :: _ -> Some tbl
         | [] -> None)
       (Store.shards db)
   with
  | None -> violate "artifacts: no persistent run to corrupt (ops too low?)"
  | Some tbl ->
    let off, len = Kv_common.Linear_table.media_range tbl in
    Device.inject_poison dev ~off ~len:(min len 256);
    let report = Store.scrub db clock ~budget_bytes:max_int in
    if report.Store_intf.sr_detected < 1 then
      violate "artifacts: poisoned run not detected by scrub";
    if report.Store_intf.sr_repaired < 1 then
      violate "artifacts: poisoned run not repaired by scrub";
    if Store.health db <> Store_intf.Healthy then
      violate "artifacts: store not healthy after scrub repair";
    sweep "post-run-repair");
  (* manifest floor fault: corrupt shard 0's record, crash, recover —
     recovery must fall back to the conservative full-log replay — then
     scrub repairs the record in place *)
  let m = Store.manifest db in
  let off, len = Chameleondb.Manifest.floor_range m ~shard:0 in
  Device.inject_poison dev ~off ~len;
  Store.crash db;
  ignore (Store.recover db clock);
  sweep "post-floor-fault recovery";
  let report = Store.scrub db clock ~budget_bytes:max_int in
  if report.Store_intf.sr_detected < 1 then
    violate "artifacts: corrupt floor record not detected by scrub";
  if not (Chameleondb.Manifest.floor_intact m ~shard:0) then
    violate "artifacts: floor record not repaired by scrub";
  sweep "post-floor-repair";
  (match Store.check_invariants db with
  | Ok () -> ()
  | Error msg -> violate "artifacts: invariant violated: %s" msg);
  List.rev !violations
