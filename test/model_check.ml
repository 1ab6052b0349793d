(* Shared model-based checker: drives any store with a deterministic
   random operation stream mirrored into a reference model, validating every
   get against it — including across crash/recovery, where the model rolls
   back exactly the entries whose log records were not yet persisted — and
   asserting the store's structural invariants after every recovery and at
   the end. *)

module Clock = Pmem_sim.Clock
module Types = Kv_common.Types
module Vlog = Kv_common.Vlog
module Store_intf = Kv_common.Store_intf

(* Reference model: per-key history of (log location, is_delete), newest
   first.  Presence = newest surviving record is not a delete. *)
type model = (Types.key, (int * bool) list) Hashtbl.t

let model_put m key loc ~deleted =
  let hist = Option.value ~default:[] (Hashtbl.find_opt m key) in
  Hashtbl.replace m key ((loc, deleted) :: hist)

let model_mem m key =
  match Hashtbl.find_opt m key with
  | Some ((_, deleted) :: _) -> not deleted
  | Some [] | None -> false

let model_crash m ~persisted =
  Hashtbl.iter
    (fun key hist ->
      Hashtbl.replace m key (List.filter (fun (loc, _) -> loc < persisted) hist))
    (Hashtbl.copy m)

let check_invariants store ~context =
  match Store_intf.check_invariants store with
  | Ok () -> ()
  | Error msg ->
    Alcotest.failf "%s: %s: invariant broken: %s" (Store_intf.name store)
      context msg

let check_key store clock m key ~context =
  let expect = model_mem m key in
  let got = (Store_intf.read store clock key).Store_intf.loc <> None in
  if expect <> got then
    Alcotest.failf "%s: key %Ld expected %s, store says %s" context key
      (if expect then "present" else "absent")
      (if got then "present" else "absent")

(* Drive [ops] random operations (puts/updates/deletes/gets) over a key
   universe; optionally crash and recover every [crash_every] operations. *)
let run ?(ops = 20_000) ?(universe = 2_000) ?crash_every ~seed store =
  let rng = Workload.Rng.create ~seed in
  let m : model = Hashtbl.create (2 * universe) in
  let clock = Clock.create () in
  let key_at i = Workload.Keyspace.key_of_index i in
  for step = 1 to ops do
    let key = key_at (Workload.Rng.int rng universe) in
    (match Workload.Rng.int rng 10 with
    | 0 | 1 | 2 | 3 | 4 ->
      Store_intf.write store clock key (Store_intf.Sized 8);
      model_put m key (Vlog.length (Store_intf.vlog store) - 1) ~deleted:false
    | 5 ->
      Store_intf.delete store clock key;
      model_put m key (Vlog.length (Store_intf.vlog store) - 1) ~deleted:true
    | 6 | 7 | 8 | 9 ->
      check_key store clock m key ~context:(Printf.sprintf "step %d" step)
    | _ -> assert false);
    (match crash_every with
    | Some n when step mod n = 0 ->
      Store_intf.crash store;
      model_crash m ~persisted:(Vlog.persisted (Store_intf.vlog store));
      Store_intf.recover store clock;
      check_invariants store
        ~context:(Printf.sprintf "recovery at step %d" step)
    | Some _ | None -> ())
  done;
  (* final sweep over the whole universe *)
  for i = 0 to universe - 1 do
    check_key store clock m (key_at i) ~context:"final sweep"
  done;
  check_invariants store ~context:"final sweep"
