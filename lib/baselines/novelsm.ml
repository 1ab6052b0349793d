module Clock = Pmem_sim.Clock
module Device = Pmem_sim.Device
module Cost_model = Pmem_sim.Cost_model
module Skiplist = Kv_common.Skiplist
module Linear_table = Kv_common.Linear_table

include Leveled.Make (struct
  let name = "NoveLSM"

  (* The mutable MemTable is a skiplist kept in the Pmem. *)
  type memtable = Skiplist.t

  let memtable dev ~cap:_ = Skiplist.create dev
  let count = Skiplist.count

  let put m clock key loc =
    Skiplist.put m clock key loc;
    `Ok

  let get = Skiplist.get
  let iter = Skiplist.iter
  let clear = Skiplist.clear
  let footprint _ = 0.0

  (* The immutable in-Pmem MemTable is streamed out during the flush; every
     run, L0 included, carries a Bloom filter. *)
  let flush_run dev clock m build =
    Device.charge_read_bytes dev clock ~len:(Skiplist.byte_size m) ~hint:Bulk;
    build ~filter:true

  (* binary-search index block before touching data *)
  let search clock ~level:_ tbl =
    Clock.advance clock
      (Float.log2 (float_of_int (max 2 (Linear_table.count tbl)))
      *. Cost_model.key_compare_ns)
end)

let create ?(memtable_cap = 8192) ?(l0_runs = 4) () =
  create ~memtable_cap ~l0_runs
