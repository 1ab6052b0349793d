module Device = Pmem_sim.Device
module Vlog = Kv_common.Vlog
module Cceh = Kv_common.Cceh
module Scan = Kv_common.Scan
module Store_intf = Kv_common.Store_intf

type t = { vlog : Vlog.t; index : Cceh.t }

let create () =
  let dev = Device.create Pmem_sim.Cost_model.optane in
  { vlog = Vlog.create ~fenced:true dev; index = Cceh.create dev }

let store t : Store_intf.store =
  (module struct
    include Store_intf.No_integrity

    let name = "Pmem-Hash"
    let device = Vlog.device t.vlog
    let vlog = t.vlog

    let write clock key spec =
      let loc = Vlog.append vlog clock key ~vlen:(Store_intf.spec_vlen spec) in
      Cceh.put t.index clock key loc

    let write_batch = Store_intf.sequential_write_batch write

    let read clock key =
      Store_intf.index_read vlog clock key
        (match Cceh.get t.index clock key with
        | Some loc -> `Hit loc
        | None -> `Miss)

    let delete clock key =
      ignore (Vlog.append vlog clock key ~vlen:(-1));
      ignore (Cceh.delete t.index clock key)

    (* CCEH keeps nothing in key order: a scan bulk-reads every distinct
       segment, sorts the survivors, and serves the range — the honest cost
       a pmem hash index pays for ordered access. *)
    let scan clock ~start ~limit =
      if limit < 0 then invalid_arg "Pmem_hash.scan: negative limit";
      let snap = Scan.of_iter clock ~start (Cceh.iter t.index clock) in
      fst (Scan.take (Scan.live snap) ~limit)

    let flush clock = Vlog.flush vlog clock

    (* Honest crash semantics: both the log (fenced, so every completed
       append is already durable) and the CCEH table (each slot write is
       individually persisted) live on the device; a crash loses only
       in-flight stores.  The only volatile state is the CCEH directory, a
       DRAM cache of per-segment metadata. *)
    let crash () =
      Device.crash device;
      Vlog.crash vlog

    (* Recovery replays the persisted table: one metadata read per segment
       rebuilds the directory; slot data needs no replay.  Idempotent — the
       rebuild reads only persisted state. *)
    let recover clock =
      Kv_common.Fault_point.with_site Kv_common.Fault_point.Recovery
      @@ fun () -> Cceh.recover t.index clock

    let check_invariants () =
      if Cceh.count t.index < 0 then Error "CCEH count negative"
      else if Cceh.segments t.index < 1 then Error "CCEH has no segments"
      else Ok ()

    let dram_footprint () =
      Cceh.dram_footprint t.index +. Vlog.dram_footprint vlog

    let pmem_footprint () = Device.used_bytes device
    let fault_points = Kv_common.Fault_point.[ Foreground; Recovery ]
  end)
