module Clock = Pmem_sim.Clock
module Device = Pmem_sim.Device
module Cost_model = Pmem_sim.Cost_model
module Flat_table = Kv_common.Flat_table

(* Pmem bytes of RowTable metadata per entry in a flushed L0 sublevel
   (forward pointers + cross-row hints; ~45% of KV-pair size at 64 B
   values in the paper). *)
let rowtable_meta_per_entry = 32

include Leveled.Make (struct
  let name = "MatrixKV"

  (* The MemTable is a DRAM hash table. *)
  type memtable = Flat_table.t

  let memtable _ ~cap = Flat_table.create ~load_factor:0.75 ~slots:(cap * 2) ()
  let count = Flat_table.count
  let put = Flat_table.put
  let get = Flat_table.get
  let iter = Flat_table.iter
  let clear = Flat_table.clear
  let footprint = Flat_table.footprint_bytes

  (* An L0 sublevel carries no Bloom filter; its RowTable metadata is
     persisted next to it. *)
  let flush_run dev clock m build =
    let tbl = build ~filter:false in
    Device.charge_append dev clock
      ~len:(Flat_table.count m * rowtable_meta_per_entry);
    tbl

  (* Cross-row hints spare the L0 binary search, not the probe: a couple
     of DRAM hint lookups, then the Pmem probe. *)
  let search clock ~level _ =
    if level = 0 then Clock.advance clock (2.0 *. Cost_model.dram_hit_ns)
end)

let create ?(memtable_cap = 8192) ?(l0_sublevels = 8) () =
  create ~memtable_cap ~l0_runs:l0_sublevels
