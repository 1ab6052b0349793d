(* Deliberately broken stores used to prove the checker has teeth: each
   mutant miscompiles one recovery rule, and test_fault asserts the sweep
   flags it. *)

module Vlog = Kv_common.Vlog
module Robinhood = Kv_common.Robinhood
module Store_intf = Kv_common.Store_intf

(* Dram-Hash whose recovery replays the persisted log NEWEST-first, so the
   oldest record of each key wins: stale values reappear and deleted keys
   resurrect whenever a key has several persisted records. *)
let broken_replay () : Store_intf.store =
  let t = Baselines.Dram_hash.create () in
  let (module Base : Store_intf.STORE) = Baselines.Dram_hash.store t in
  (module struct
    include Base

    let name = "Broken-Replay"

    let recover clock =
      Kv_common.Fault_point.with_site Kv_common.Fault_point.Recovery
      @@ fun () ->
      let entries = ref [] in
      Vlog.iter_range vlog clock ~lo:(Vlog.head vlog)
        ~hi:(Vlog.persisted vlog) (fun loc key vlen ->
          entries := (loc, key, vlen) :: !entries);
      (* BUG: [entries] is already newest-first; a correct replay would
         List.rev it so later records overwrite earlier ones *)
      List.iter
        (fun (loc, key, vlen) ->
          if vlen < 0 then ignore (Robinhood.delete t.index clock key)
          else Robinhood.put t.index clock key loc)
        !entries
  end)
