module Clock = Pmem_sim.Clock
module Types = Kv_common.Types
module Vlog = Kv_common.Vlog
module Store_intf = Kv_common.Store_intf
module Fault_point = Kv_common.Fault_point
module Rng = Workload.Rng
module Keyspace = Workload.Keyspace

type outcome = {
  store_name : string;
  seed : int;
  crashed : bool;
  crash_site : Fault_point.site option;
  crash_step : int;
  recovery_crashed : bool;
  violations : string list;
}

(* In-DRAM oracle: per-key history of (log location, is_delete), newest
   first, recorded only for operations that COMPLETED before the crash.
   Pruning at the post-crash [Vlog.persisted] watermark yields exactly the
   state an honest store must expose: an acknowledged op whose record made
   it below the watermark is durable; one above it is legitimately lost. *)
type oracle = (Types.key, (int * bool) list) Hashtbl.t

let oracle_record (o : oracle) key loc ~deleted =
  let hist = Option.value ~default:[] (Hashtbl.find_opt o key) in
  Hashtbl.replace o key ((loc, deleted) :: hist)

let oracle_mem (o : oracle) key =
  match Hashtbl.find_opt o key with
  | Some ((_, deleted) :: _) -> not deleted
  | Some [] | None -> false

let oracle_prune (o : oracle) ~persisted =
  Hashtbl.iter
    (fun key hist ->
      Hashtbl.replace o key
        (List.filter (fun (loc, _) -> loc < persisted) hist))
    (Hashtbl.copy o)

let run_case ~make ?(ops = 4_000) ?(universe = 400) ?crash_site ?crash_after
    ?recovery_crash_after ~seed () =
  let store = make () in
  let name = Store_intf.name store in
  let dev = Store_intf.device store in
  let vlog = Store_intf.vlog store in
  let inj = Injector.attach dev in
  let rng = Rng.create ~seed in
  let clock = Clock.create () in
  let oracle : oracle = Hashtbl.create (2 * universe) in
  let violations = ref [] in
  let violate fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  let crashed = ref false in
  let crash_step = ref 0 in
  let crash_site_fired = ref None in
  let recovery_crashed = ref false in
  (* [inflight] holds the key of the single operation currently executing;
     if the crash interrupts it, that key becomes [ambiguous]: its pre- and
     post-op states are both acceptable (the append may or may not have
     persisted), so it is exempt from checks until a later COMPLETED write
     resolves it.

     A crash inside a grouped write leaves every key of the group
     individually ambiguous (a store may commit anywhere from none to all
     of them, and its commit point need not be the log append — Pmem-Hash
     commits on the slot update), but the ACK ORDER is not ambiguous:
     batched acks promise that what survives is a prefix of the group.
     [inflight_group] remembers (base, keys); on a crash mid-group the
     keys join [ambiguous] for the state sweep, and the group's fresh
     keys (no earlier history that could mask the outcome) get a direct
     suffix-only assertion after recovery: a surviving key with a lost
     predecessor fails the case. *)
  let inflight = ref [] in
  let ambiguous = ref [] in
  let inflight_group = ref None in
  let group_suffix_check = ref [] in
  let crash_with_tear () =
    Injector.set_tear inj ~seed ~keep_prob:0.5;
    Store_intf.crash store;
    Injector.clear_tear inj;
    oracle_prune oracle ~persisted:(Vlog.persisted vlog)
  in
  let recover_once () = Store_intf.recover store clock in
  (* Recovery, optionally crashing partway through it and recovering again:
     a correct store's recovery must be idempotent under its own crash. *)
  let recover () =
    match recovery_crash_after with
    | None -> recover_once ()
    | Some k -> (
      Injector.arm inj ~after:k ();
      match recover_once () with
      | () -> Injector.disarm inj
      | exception Injector.Crash_injected ->
        recovery_crashed := true;
        crash_with_tear ();
        recover_once ())
  in
  let check_key ~context key =
    if not (List.mem key !ambiguous) then begin
      let expect = oracle_mem oracle key in
      let got = (Store_intf.read store clock key).Store_intf.loc <> None in
      if expect <> got then
        violate "%s: key %Ld expected %s, store says %s" context key
          (if expect then "present" else "absent")
          (if got then "present" else "absent")
    end
  in
  (* Ordered-scan oracle: the store's scan must return exactly the live
     oracle keys >= start, in ascending order, truncated at the limit — no
     phantom, lost, duplicated, or mis-ordered keys.  When the ambiguous
     key falls inside the range its presence would shift the cut-off, so
     the check is skipped for that one verification. *)
  let check_scan ~context ~start ~limit =
    let ambiguous_in_range =
      List.exists (fun k -> Types.key_compare k start >= 0) !ambiguous
    in
    if not ambiguous_in_range then begin
      let rec firstn n = function
        | x :: tl when n > 0 -> x :: firstn (n - 1) tl
        | _ -> []
      in
      let expect =
        List.init universe Keyspace.key_of_index
        |> List.filter (fun k ->
               Types.key_compare k start >= 0 && oracle_mem oracle k)
        |> List.sort Types.key_compare
        |> firstn limit
      in
      let got = List.map fst (Store_intf.scan store clock ~start ~limit) in
      if got <> expect then
        violate "%s: scan(%Lu,%d) returned %d keys [%s], oracle expects %d [%s]"
          context start limit (List.length got)
          (String.concat ";" (List.map (Printf.sprintf "%Lu") (firstn 8 got)))
          (List.length expect)
          (String.concat ";" (List.map (Printf.sprintf "%Lu") (firstn 8 expect)))
    end
  in
  let verify_sweep ~context =
    for i = 0 to universe - 1 do
      check_key ~context (Keyspace.key_of_index i)
    done;
    (* full-range and mid-range ordered scans against the oracle *)
    check_scan ~context ~start:0L ~limit:universe;
    check_scan ~context
      ~start:(Keyspace.key_of_index (universe / 2))
      ~limit:(max 1 (universe / 8));
    match Store_intf.check_invariants store with
    | Ok () -> ()
    | Error msg -> violate "%s: invariant violated: %s" context msg
  in
  let run_op step =
    let key = Keyspace.key_of_index (Rng.int rng universe) in
    match Rng.int rng 20 with
    | 0 | 1 | 2 | 3 | 4 | 5 | 6 ->
      inflight := [ key ];
      Store_intf.write store clock key (Store_intf.Sized 8);
      oracle_record oracle key (Vlog.length vlog - 1) ~deleted:false;
      inflight := [];
      ambiguous := List.filter (fun k -> k <> key) !ambiguous
    | 7 | 8 ->
      (* grouped write through [write_batch]: acked as a unit, and a crash
         inside the group must lose a suffix only — the optimistic group
         recording in the crash handler plus the watermark prune enforce
         exactly that *)
      let n = 2 + Rng.int rng 7 in
      let keys =
        List.init n (fun _ -> Keyspace.key_of_index (Rng.int rng universe))
      in
      let base = Vlog.length vlog in
      inflight_group := Some (base, keys);
      Store_intf.write_batch store clock
        (List.map (fun k -> (k, Store_intf.Sized 8)) keys);
      inflight_group := None;
      List.iteri
        (fun i k -> oracle_record oracle k (base + i) ~deleted:false)
        keys;
      ambiguous := List.filter (fun k -> not (List.mem k keys)) !ambiguous
    | 9 | 10 ->
      inflight := [ key ];
      Store_intf.delete store clock key;
      oracle_record oracle key (Vlog.length vlog - 1) ~deleted:true;
      inflight := [];
      ambiguous := List.filter (fun k -> k <> key) !ambiguous
    | 11 | 12 ->
      check_scan
        ~context:(Printf.sprintf "step %d" step)
        ~start:key
        ~limit:(1 + Rng.int rng 16)
    | _ -> check_key ~context:(Printf.sprintf "step %d" step) key
  in
  let drive lo hi =
    let step = ref lo in
    (try
       while !step < hi do
         incr step;
         run_op !step;
         if !step mod 701 = 0 then Store_intf.flush store clock;
         if !step mod 907 = 0 then Store_intf.maintenance store clock;
         if !step mod 1103 = 0 then
           ignore (Store_intf.scrub store clock ~budget_bytes:65536)
       done
     with
    | Injector.Crash_injected ->
      crashed := true;
      crash_step := !step;
      crash_site_fired := Injector.fired_site inj;
      (match !inflight_group with
      | Some (_base, keys) ->
        (* fresh keys: no prior history and a single occurrence, so
           post-recovery presence can only come from this group *)
        group_suffix_check :=
          List.filter
            (fun k ->
              (not (Hashtbl.mem oracle k))
              && List.length (List.filter (Int64.equal k) keys) = 1)
            keys;
        ambiguous := keys;
        inflight_group := None
      | None -> ());
      ambiguous := !inflight @ !ambiguous;
      inflight := [];
      crash_with_tear ();
      recover ();
      (* batched-ack order: among the group's fresh keys, survivors must
         form a prefix — a present key after an absent one means the
         store acked (or replayed) a middle op without its predecessor *)
      (match !group_suffix_check with
      | [] -> ()
      | fresh ->
        let flags =
          List.map
            (fun k ->
              (Store_intf.read store clock k).Store_intf.loc <> None)
            fresh
        in
        let rec prefix_ok = function
          | a :: (b :: _ as tl) -> ((a || not b) && prefix_ok tl)
          | _ -> true
        in
        if not (prefix_ok flags) then
          violate
            "crash in group commit (step %d): surviving batch keys are \
             not a prefix [%s]"
            !step
            (String.concat ";"
               (List.map (fun b -> if b then "1" else "0") flags));
        group_suffix_check := []);
      verify_sweep ~context:(Printf.sprintf "post-recovery (step %d)" !step)
    | exn ->
      violate "step %d: unexpected exception %s" !step
        (Printexc.to_string exn));
    !step
  in
  (match crash_site with
  | Some site -> Injector.arm inj ~site ~after:(Option.value ~default:0 crash_after) ()
  | None -> (
    match crash_after with
    | Some after -> Injector.arm inj ~after ()
    | None -> ()));
  let reached = drive 0 ops in
  (* exercise the store after recovery: a correct store keeps serving and
     stays consistent with the (pruned) oracle *)
  if !crashed then begin
    ignore (drive reached (reached + (ops / 4)));
    verify_sweep ~context:"post-crash workload"
  end
  else begin
    (* no crash fired: still sweep so clean runs validate the oracle *)
    verify_sweep ~context:"clean run"
  end;
  Injector.detach inj;
  { store_name = name;
    seed;
    crashed = !crashed;
    crash_site = !crash_site_fired;
    crash_step = !crash_step;
    recovery_crashed = !recovery_crashed;
    violations = List.rev !violations }

(* Run the identical workload with the injector only counting persist
   events: the per-site totals enumerate every crash point a site offers. *)
let profile ~make ?(ops = 4_000) ?(universe = 400) ~seed () =
  let store = make () in
  let dev = Store_intf.device store in
  let inj = Injector.attach dev in
  Injector.observe inj;
  let rng = Rng.create ~seed in
  let clock = Clock.create () in
  for step = 1 to ops do
    let key = Keyspace.key_of_index (Rng.int rng universe) in
    (match Rng.int rng 20 with
    | 0 | 1 | 2 | 3 | 4 | 5 | 6 ->
      Store_intf.write store clock key (Store_intf.Sized 8)
    | 7 | 8 ->
      (* mirror [run_case]'s grouped-write draw so the profiled persist
         events enumerate the same crash points *)
      let n = 2 + Rng.int rng 7 in
      let keys =
        List.init n (fun _ -> Keyspace.key_of_index (Rng.int rng universe))
      in
      Store_intf.write_batch store clock
        (List.map (fun k -> (k, Store_intf.Sized 8)) keys)
    | 9 | 10 -> Store_intf.delete store clock key
    | 11 | 12 -> ignore (Store_intf.scan store clock ~start:key ~limit:8)
    | _ -> ignore (Store_intf.read store clock key));
    if step mod 701 = 0 then Store_intf.flush store clock;
    if step mod 907 = 0 then Store_intf.maintenance store clock;
    if step mod 1103 = 0 then
      ignore (Store_intf.scrub store clock ~budget_bytes:65536)
  done;
  let counts = Injector.counts inj in
  Injector.detach inj;
  counts
