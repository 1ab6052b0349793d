module Clock = Pmem_sim.Clock
module Device = Pmem_sim.Device
module Cost_model = Pmem_sim.Cost_model
module Types = Kv_common.Types
module Vlog = Kv_common.Vlog
module Bloom = Kv_common.Bloom
module Linear_table = Kv_common.Linear_table
module Scan = Kv_common.Scan
module Store_intf = Kv_common.Store_intf

module type DESIGN = sig
  val name : string

  type memtable

  val memtable : Device.t -> cap:int -> memtable
  val count : memtable -> int
  val put : memtable -> Clock.t -> Types.key -> Types.loc -> [ `Ok | `Full ]
  val get : memtable -> Clock.t -> Types.key -> Types.loc option
  val iter : memtable -> (Types.key -> Types.loc -> unit) -> unit
  val clear : memtable -> unit
  val footprint : memtable -> float

  val flush_run :
    Device.t -> Clock.t -> memtable -> (filter:bool -> Linear_table.t) ->
    Linear_table.t

  val search : Clock.t -> level:int -> Linear_table.t -> unit
end

(* Lower levels L1..L3 below L0, each [ratio] times the one above. *)
let nlevels = 3
let ratio = 8

module Make (D : DESIGN) = struct
  type t = {
    memtable_cap : int;
    l0_runs : int;
    dev : Device.t;
    vlog : Vlog.t;
    memtable : D.memtable;
    mutable l0 : Linear_table.t list; (* newest first *)
    lower : Linear_table.t option array; (* index 0 = L1 *)
    blooms : (int, Bloom.t) Hashtbl.t; (* keyed by run tag *)
    mutable next_seq : int;
    mutable bg_free_at : float;
    mutable mt_floor : int;
  }

  let create ~memtable_cap ~l0_runs =
    let dev = Device.create Cost_model.optane in
    { memtable_cap;
      l0_runs;
      dev;
      vlog = Vlog.create dev;
      memtable = D.memtable dev ~cap:memtable_cap;
      l0 = [];
      lower = Array.make nlevels None;
      blooms = Hashtbl.create 16;
      next_seq = 1;
      bg_free_at = 0.0;
      mt_floor = 0 }

  let rec pow b = function 0 -> 1 | n -> b * pow b (n - 1)

  (* Capacity (entries) of lower level k (0-based: k = 0 is L1). *)
  let level_cap t k = t.l0_runs * t.memtable_cap * pow ratio k

  (* Comparison-sorted run construction plus (optionally) filter build:
     the CPU costs the paper blames for the low Pmem bandwidth
     utilization of both designs. *)
  let build_run t clock ~filter entries =
    let n = List.length entries in
    let slots = max 64 (n * 4 / 3) in
    Clock.advance clock (float_of_int n *. Cost_model.sort_per_key_ns);
    let tbl = Linear_table.build t.dev clock ~slots entries in
    Linear_table.set_tag tbl t.next_seq;
    t.next_seq <- t.next_seq + 1;
    if filter then begin
      let bloom = Bloom.create ~expected:(max 16 n) ~bits_per_key:10 in
      List.iter (fun (k, _) -> Bloom.add bloom clock k) entries;
      Hashtbl.replace t.blooms (Linear_table.tag tbl) bloom
    end;
    tbl

  let drop_run t tbl =
    Hashtbl.remove t.blooms (Linear_table.tag tbl);
    Linear_table.free tbl

  let read_run clock tbl =
    let acc = ref [] in
    Linear_table.iter tbl clock (fun k l -> acc := (k, l) :: !acc);
    List.rev !acc

  let merge_newest_first ~drop_tombstones clock sources =
    Kv_common.Merge.newest_first ~drop_tombstones
      ~on_entry:(fun () -> Clock.advance clock Cost_model.key_compare_ns)
      (List.map Kv_common.Merge.of_list sources)

  (* Leveled compaction: merge level [k]'s run into level [k+1], rewriting
     the whole lower run (write amplification ~ ratio per level). *)
  let rec compact_lower t bg ~k =
    match t.lower.(k) with
    | None -> ()
    | Some run when Linear_table.count run <= level_cap t k -> ()
    | Some run ->
      if k + 1 >= nlevels then () (* deepest level may exceed its target *)
      else begin
        let below =
          match t.lower.(k + 1) with
          | None -> []
          | Some tbl -> [ read_run bg tbl ]
        in
        let entries =
          merge_newest_first bg
            ~drop_tombstones:(k + 1 = nlevels - 1)
            (read_run bg run :: below)
        in
        let fresh = build_run t bg ~filter:true entries in
        drop_run t run;
        Option.iter (drop_run t) t.lower.(k + 1);
        t.lower.(k) <- None;
        t.lower.(k + 1) <- Some fresh;
        compact_lower t bg ~k:(k + 1)
      end

  let compact_l0 t bg =
    let sources = List.map (read_run bg) t.l0 in
    let below =
      match t.lower.(0) with None -> [] | Some tbl -> [ read_run bg tbl ]
    in
    let entries =
      merge_newest_first bg ~drop_tombstones:false (sources @ below)
    in
    let fresh = build_run t bg ~filter:true entries in
    List.iter (drop_run t) t.l0;
    t.l0 <- [];
    Option.iter (drop_run t) t.lower.(0);
    t.lower.(0) <- Some fresh;
    compact_lower t bg ~k:0

  let flush t clock =
    ignore (Clock.wait_until clock t.bg_free_at);
    let bg = Clock.create ~at:(Clock.now clock) () in
    Vlog.flush t.vlog bg;
    let entries = ref [] in
    D.iter t.memtable (fun k l -> entries := (k, l) :: !entries);
    let tbl =
      D.flush_run t.dev bg t.memtable (fun ~filter ->
          build_run t bg ~filter (List.rev !entries))
    in
    t.l0 <- tbl :: t.l0;
    D.clear t.memtable;
    if List.length t.l0 > t.l0_runs then compact_l0 t bg;
    t.bg_free_at <- Clock.now bg;
    (* keep the floor below the log entry of the put that triggered us *)
    t.mt_floor <- max t.mt_floor (Vlog.length t.vlog - 1)

  let rec insert t clock key loc =
    if D.count t.memtable >= t.memtable_cap then flush t clock;
    match D.put t.memtable clock key loc with
    | `Ok -> ()
    | `Full ->
      flush t clock;
      insert t clock key loc

  let probe_run t clock ~level tbl key =
    let maybe =
      match Hashtbl.find_opt t.blooms (Linear_table.tag tbl) with
      | Some b -> Bloom.mem ~level b clock key
      | None -> true
    in
    if maybe then begin
      D.search clock ~level tbl;
      Linear_table.get tbl clock key
    end
    else Linear_table.Absent

  (* MemTable, then L0 newest first, then L1..L3.  A corrupt run block
     fails the probe closed: falling through to an older level could
     resurrect a superseded version. *)
  let probe t clock key =
    match D.get t.memtable clock key with
    | Some loc -> `Hit loc
    | None ->
      let rec runs ~level = function
        | [] when level >= nlevels -> `Miss
        | [] -> runs ~level:(level + 1) (Option.to_list t.lower.(level))
        | tbl :: rest ->
          (match probe_run t clock ~level tbl key with
          | Linear_table.Found loc -> `Hit loc
          | Linear_table.Corrupted -> `Corrupt
          | Linear_table.Absent -> runs ~level rest)
      in
      runs ~level:0 t.l0

  (* Hash-bucketed runs have no internal order, so every source pays a
     full snapshot; newest-first source order gives the merge correct
     shadowing (MemTable, then L0 newest first, then L1..L3). *)
  let scan t clock ~start ~limit =
    if limit < 0 then invalid_arg (D.name ^ ".scan: negative limit");
    let run_stream tbl =
      if Linear_table.intact tbl clock then
        Scan.of_iter clock ~start (fun f -> Linear_table.iter tbl clock f)
      else fun () -> Scan.Error
    in
    let mem = Scan.of_iter clock ~start (D.iter t.memtable) in
    let lower =
      List.filter_map (Option.map run_stream) (Array.to_list t.lower)
    in
    let merged = Scan.merge ((mem :: List.map run_stream t.l0) @ lower) in
    fst (Scan.take (Scan.live merged) ~limit)

  (* The MemTable is replayed from the log above the recovery floor
     (NoveLSM's in-Pmem skiplist conservatively so: equivalent content,
     same scan cost bound). *)
  let crash t =
    Device.crash t.dev;
    Vlog.crash t.vlog;
    D.clear t.memtable;
    t.mt_floor <- min t.mt_floor (Vlog.persisted t.vlog)

  let recover t clock =
    Vlog.iter_range t.vlog clock ~lo:t.mt_floor ~hi:(Vlog.persisted t.vlog)
      (fun loc key vlen ->
        insert t clock key (if vlen < 0 then Types.tombstone else loc))

  (* L0 within its run limit, every level above the deepest within its
     cap, every lower run filtered, and each filter built over exactly the
     entries of a live run (none left behind by a dropped run). *)
  let check_invariants t =
    let fail fmt = Printf.ksprintf Result.error fmt in
    let lower = List.filter_map Fun.id (Array.to_list t.lower) in
    let over_cap k =
      match t.lower.(k) with
      | Some run -> Linear_table.count run > level_cap t k
      | None -> false
    in
    let unfiltered run = not (Hashtbl.mem t.blooms (Linear_table.tag run)) in
    let filters =
      List.filter_map
        (fun run ->
          Option.map (fun b -> (run, b))
            (Hashtbl.find_opt t.blooms (Linear_table.tag run)))
        (t.l0 @ lower)
    in
    let stale (run, b) = Bloom.nkeys b <> Linear_table.count run in
    match List.find_opt over_cap (List.init (nlevels - 1) Fun.id) with
    | _ when List.length t.l0 > t.l0_runs ->
      fail "L0 holds %d runs (limit %d)" (List.length t.l0) t.l0_runs
    | Some k -> fail "L%d exceeds its cap of %d entries" (k + 1) (level_cap t k)
    | None when List.exists unfiltered lower ->
      fail "a lower-level run has no filter"
    | None when List.exists stale filters ->
      fail "a filter disagrees with its run's entry count"
    | None when Hashtbl.length t.blooms <> List.length filters ->
      fail "%d filters for %d filtered live runs" (Hashtbl.length t.blooms)
        (List.length filters)
    | None -> Ok ()

  let store t : Store_intf.store =
    (module struct
      include Store_intf.No_integrity

      let name = D.name

      let write clock key spec =
        let loc =
          Vlog.append t.vlog clock key ~vlen:(Store_intf.spec_vlen spec)
        in
        insert t clock key loc

      let write_batch = Store_intf.sequential_write_batch write

      let read clock key =
        Store_intf.index_read t.vlog clock key (probe t clock key)

      let delete clock key =
        ignore (Vlog.append t.vlog clock key ~vlen:(-1));
        insert t clock key Types.tombstone

      let scan clock ~start ~limit = scan t clock ~start ~limit

      let flush clock =
        if D.count t.memtable > 0 then flush t clock;
        Vlog.flush t.vlog clock

      let crash () = crash t
      let recover clock = recover t clock
      let check_invariants () = check_invariants t

      let dram_footprint () =
        Hashtbl.fold
          (fun _ b acc -> acc +. Bloom.footprint_bytes b)
          t.blooms
          (D.footprint t.memtable +. Vlog.dram_footprint t.vlog)

      let pmem_footprint () = Device.used_bytes t.dev
      let device = t.dev
      let vlog = t.vlog
      let fault_points = Kv_common.Fault_point.[ Foreground; Recovery ]
    end)
end
