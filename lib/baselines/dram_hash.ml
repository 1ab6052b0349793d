module Clock = Pmem_sim.Clock
module Device = Pmem_sim.Device
module Types = Kv_common.Types
module Vlog = Kv_common.Vlog
module Robinhood = Kv_common.Robinhood
module Scan = Kv_common.Scan
module Store_intf = Kv_common.Store_intf

type t = { vlog : Vlog.t; mutable index : Robinhood.t }

let create () =
  { vlog = Vlog.create (Device.create Pmem_sim.Cost_model.optane);
    index = Robinhood.create () }

let store t : Store_intf.store =
  (module struct
    include Store_intf.No_integrity

    let name = "Dram-Hash"
    let device = Vlog.device t.vlog
    let vlog = t.vlog

    let write clock key spec =
      let loc = Vlog.append vlog clock key ~vlen:(Store_intf.spec_vlen spec) in
      Robinhood.put t.index clock key loc

    let write_batch = Store_intf.sequential_write_batch write

    let read clock key =
      Store_intf.index_read vlog clock key
        (match Robinhood.get t.index clock key with
        | Some loc -> `Hit loc
        | None -> `Miss)

    let delete clock key =
      ignore (Vlog.append vlog clock key ~vlen:(-1));
      ignore (Robinhood.delete t.index clock key)

    (* A hash index has no order: a scan pays a full snapshot of the index —
       walk every entry, sort, then serve the range.  Tombstones survive
       into the stream and are dropped by [Scan.live]. *)
    let scan clock ~start ~limit =
      if limit < 0 then invalid_arg "Dram_hash.scan: negative limit";
      let snap = Scan.of_iter clock ~start (Robinhood.iter t.index) in
      fst (Scan.take (Scan.live snap) ~limit)

    let flush clock = Vlog.flush vlog clock

    (* Honest crash semantics: the whole index is DRAM, so a power failure
       loses every entry — by design.  What survives is exactly the
       persisted prefix of the log. *)
    let crash () =
      Device.crash device;
      Vlog.crash vlog;
      t.index <- Robinhood.create ()

    (* Recovery is a full scan of the persisted log — the design's whole
       restart cost.  Replaying into a partially rebuilt index is
       restartable: a crash during recovery drops the index again and the
       next recovery rescans from the head. *)
    let recover clock =
      Kv_common.Fault_point.with_site Kv_common.Fault_point.Recovery
      @@ fun () ->
      Vlog.iter_range vlog clock ~lo:(Vlog.head vlog) ~hi:(Vlog.persisted vlog)
        (fun loc key vlen ->
          if vlen < 0 then ignore (Robinhood.delete t.index clock key)
          else Robinhood.put t.index clock key loc)

    (* Every live index entry must point at a log record for its own key. *)
    let check_invariants () =
      let bad = ref None in
      Robinhood.iter t.index (fun key loc ->
          if !bad = None && not (Types.is_tombstone loc) then
            if
              loc < Vlog.head vlog
              || loc >= Vlog.length vlog
              || not (Int64.equal (Vlog.key_at vlog loc) key)
            then bad := Some key);
      match !bad with
      | Some k -> Error (Printf.sprintf "index entry for %Ld is dangling" k)
      | None -> Ok ()

    let dram_footprint () =
      Robinhood.footprint_bytes t.index +. Vlog.dram_footprint vlog

    let pmem_footprint () = Device.used_bytes device
    let fault_points = Kv_common.Fault_point.[ Foreground; Recovery ]
  end)
