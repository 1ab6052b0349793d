(* Hybrid-Viper: a Viper-style hybrid DRAM/PMem store (Benson et al.,
   VLDB 2021) — Dram-Hash with Viper's durability discipline.  A volatile
   DRAM hash index maps keys to records in a CRC32C-checked PMem value
   log; every put is durable when it is acked — Viper persists each record
   with ntstores plus a fence — so unlike Dram-Hash there is no open-batch
   window in which acked writes can be lost.  Viper's per-client write
   buffers are realized one layer up: the service's group commit and the
   client auto-batcher hand the store whole groups, and [write_batch]
   appends the group and pays a single persist fence for all of it.

   The price is the other side of ChameleonDB's instant-restart tradeoff:
   the index is DRAM-only, so recovery must replay the entire persisted
   log before serving; the `batch` experiment reports the gap against
   ChameleonDB's persisted last level.  Reads, scans, crash, recovery and
   invariants are Dram-Hash's own. *)

module Clock = Pmem_sim.Clock
module Vlog = Kv_common.Vlog
module Robinhood = Kv_common.Robinhood
module Store_intf = Kv_common.Store_intf

type t = Dram_hash.t

let c_group_commits = Obs.Counters.counter "hybrid_viper.group_commits"
let c_group_ops = Obs.Counters.counter "hybrid_viper.group_ops"

(* The log's staging buffer is one bounded per-client buffer: a group
   larger than it still persists with one fence per 64 KiB of data. *)
let create () =
  { Dram_hash.vlog =
      Vlog.create ~batch_bytes:(64 * 1024)
        (Pmem_sim.Device.create Pmem_sim.Cost_model.optane);
    index = Robinhood.create () }

let store (t : t) : Store_intf.store =
  let (module Base : Store_intf.STORE) = Dram_hash.store t in
  (module struct
    include Base

    let name = "Hybrid-Viper"

    (* One put = one record append + its own persist fence (Viper's
       ntstore+fence discipline), then the index update.  The ack implies
       durability; deletes fence their tombstone the same way. *)
    let write clock key spec =
      let loc = Vlog.append vlog clock key ~vlen:(Store_intf.spec_vlen spec) in
      Vlog.flush vlog clock;
      Robinhood.put t.index clock key loc

    let delete clock key =
      ignore (Vlog.append vlog clock key ~vlen:(-1));
      Vlog.flush vlog clock;
      ignore (Robinhood.delete t.index clock key)

    (* Group commit: stage the whole group in the write buffer, then one
       fence covers every record.  Log-append order is list order, so a
       crash mid-flush can only lose a suffix of the group. *)
    let write_batch clock items =
      Obs.Counters.incr c_group_commits;
      List.iter
        (fun (key, spec) ->
          Obs.Counters.incr c_group_ops;
          Base.write clock key spec)
        items;
      let attr = Obs.Attribution.enabled () in
      let t0 = if attr then Clock.now clock else 0.0 in
      Vlog.flush vlog clock;
      if attr then Obs.Attribution.add Put_group_commit (Clock.now clock -. t0)
  end)
