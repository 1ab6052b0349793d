(* Cluster layer: HRW ring placement, quorum replication, node failover
   with catch-up, and live shard migration.

   The scenario tests run the same Cluster_bench entry points the
   `cluster` experiment uses, at a tiny scale, and gate
   on the oracle divergence audit — the executable form of "no
   quorum-acked write is ever lost". *)

module Ring = Cluster.Ring
module Node = Cluster.Node
module Router = Cluster.Router
module Membership = Cluster.Membership
module Migration = Cluster.Migration
module Run = Cluster.Run
module Proto = Service.Proto
module Clock = Pmem_sim.Clock

let key i = Workload.Keyspace.key_of_index i

let tiny =
  { Harness.Stores.shards = 4;
    memtable_slots = 64;
    load_keys = 4000;
    sweep_ops = 6000;
    threads = [ 1 ];
    vlen = 8 }

let mk_cluster ?(vshards = 32) ~n ~replicas ~wq ~rq () =
  let nodes =
    Array.init n (fun i ->
        let spec =
          Harness.Stores.chameleon ~name:(Printf.sprintf "n%d" i) tiny
        in
        Cluster.Node.create ~id:i (spec.Harness.Stores.make ()))
  in
  let ring =
    Ring.create ~vshards ~replicas ~nodes:(List.init n Fun.id) ()
  in
  (ring, nodes, Router.create ~write_quorum:wq ~read_quorum:rq ring nodes)

(* --------------------------------- ring ---------------------------------- *)

let test_ring_deterministic_and_balanced () =
  let mk () = Ring.create ~vshards:128 ~replicas:2 ~nodes:[ 0; 1; 2; 3 ] () in
  let a = mk () and b = mk () in
  let counts = Array.make 4 0 in
  for v = 0 to 127 do
    let oa = Ring.owners a v and ob = Ring.owners b v in
    Alcotest.(check (list int)) "same owners on identical rings" oa ob;
    Alcotest.(check int) "replica count" 2 (List.length oa);
    Alcotest.(check bool) "owners distinct" true
      (List.length (List.sort_uniq compare oa) = 2);
    List.iter (fun n -> counts.(n) <- counts.(n) + 1) oa
  done;
  Array.iteri
    (fun n c ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d owns a fair share (%d vshards)" n c)
        true
        (c >= 16))
    counts;
  (* keys map to stable vshards in range *)
  for i = 0 to 999 do
    let v = Ring.vshard_of a (key i) in
    Alcotest.(check bool) "vshard in range" true (v >= 0 && v < 128);
    Alcotest.(check int) "vshard stable" v (Ring.vshard_of b (key i))
  done

let test_ring_minimal_disruption () =
  (* adding a node only reassigns vshards the new node scores into *)
  let four = Ring.create ~vshards:128 ~replicas:2 ~nodes:[ 0; 1; 2; 3 ] () in
  let five =
    Ring.create ~vshards:128 ~replicas:2 ~nodes:[ 0; 1; 2; 3; 4 ] ()
  in
  let moved = ref 0 in
  for v = 0 to 127 do
    let o4 = Ring.owners four v and o5 = Ring.owners five v in
    if o4 <> o5 then begin
      incr moved;
      Alcotest.(check bool) "changed owner sets involve the new node" true
        (List.mem 4 o5)
    end
  done;
  Alcotest.(check bool) "some vshards moved to the new node" true (!moved > 0);
  Alcotest.(check bool) "most vshards did not move" true (!moved < 128)

let test_ring_override () =
  let r = Ring.create ~vshards:16 ~replicas:2 ~nodes:[ 0; 1; 2 ] () in
  let before = Ring.owners r 3 in
  Ring.set_override r ~vshard:3 [ 2; 0 ];
  Alcotest.(check (list int)) "override wins" [ 2; 0 ] (Ring.owners r 3);
  Alcotest.(check bool) "other vshards untouched" true
    (Ring.owners r 4 = Ring.owners (Ring.create ~vshards:16 ~replicas:2 ~nodes:[ 0; 1; 2 ] ()) 4);
  Ring.clear_override r ~vshard:3;
  Alcotest.(check (list int)) "clear restores HRW" before (Ring.owners r 3);
  Alcotest.check_raises "override must carry exactly replicas owners"
    (Invalid_argument "Ring.set_override: wrong owner count") (fun () ->
      Ring.set_override r ~vshard:1 [ 0 ])

let test_ring_owner_table () =
  let rec prefix n = function
    | x :: rest when n > 0 -> x :: prefix (n - 1) rest
    | _ -> []
  in
  List.iter
    (fun (nodes, vshards, replicas) ->
      let r = Ring.create ~vshards ~replicas ~nodes () in
      for v = 0 to vshards - 1 do
        Alcotest.(check (list int))
          (Printf.sprintf "%d nodes, %d vshards, vshard %d"
             (List.length nodes) vshards v)
          (prefix replicas (Ring.preference r v))
          (Ring.owners r v)
      done)
    [ ([ 0; 1; 2 ], 16, 2);
      ([ 0; 1; 2; 3 ], 64, 2);
      ([ 4; 0; 2; 7; 1 ], 37, 3);
      ([ 3; 1 ], 1, 1) ];
  (* an override sits on top of the table and clearing it restores the
     very same table entry *)
  let r = Ring.create ~vshards:8 ~replicas:2 ~nodes:[ 0; 1; 2 ] () in
  let entry = Ring.owners r 5 in
  Alcotest.(check bool) "lookups share the table entry" true
    (Ring.owners r 5 == entry);
  Ring.set_override r ~vshard:5 (List.rev entry);
  Alcotest.(check (list int))
    "override wins" (List.rev entry) (Ring.owners r 5);
  Ring.clear_override r ~vshard:5;
  Alcotest.(check bool) "clear restores the table entry" true
    (Ring.owners r 5 == entry);
  (* with the ring unchanged the route cache never goes stale *)
  let _, _, router = mk_cluster ~n:3 ~replicas:2 ~wq:2 ~rq:1 () in
  let k = key 5 in
  let t = ref 0.0 in
  for i = 1 to 20 do
    let req =
      if i mod 4 = 0 then Proto.Put (k, Bytes.create 8) else Proto.Get k
    in
    t := (Router.call router ~at:!t ~bytes:26 req).Router.finish
  done;
  Alcotest.(check int) "no redirects to an unchanged vshard" 0
    (Router.redirects router)

(* ------------------------------ quorum I/O -------------------------------- *)

let test_quorum_write_and_read () =
  let ring, nodes, router = mk_cluster ~n:3 ~replicas:2 ~wq:2 ~rq:1 () in
  let k = key 7 in
  let o = Router.submit_write router ~at:0.0 ~bytes:26 k (Node.Put 8) in
  Alcotest.(check bool) "write acked" true (o.Router.reply = Proto.Ok);
  (match o.Router.acked with
  | [ (k', stamp, Node.Put 8) ] ->
      Alcotest.(check bool) "acked the key" true (k' = k);
      Alcotest.(check int) "first stamp" 1 stamp
  | _ -> Alcotest.fail "expected one acked put");
  (* every owner applied it, with the same stamp *)
  List.iter
    (fun nid ->
      Alcotest.(check (option int))
        (Printf.sprintf "owner %d holds version" nid)
        (Some 1)
        (Node.version nodes.(nid) k))
    (Ring.owners_of_key ring k);
  let r = Router.submit_read router ~at:o.Router.finish ~bytes:14 k in
  Alcotest.(check bool) "read hits" true (r.Router.reply = Proto.Hit 8);
  Alcotest.(check bool) "reply after request" true (r.Router.finish > o.Router.finish);
  (* a delete is a stamped version too *)
  let d = Router.submit_write router ~at:r.Router.finish ~bytes:14 k Node.Delete in
  Alcotest.(check bool) "delete acked" true (d.Router.reply = Proto.Ok);
  let r2 = Router.submit_read router ~at:d.Router.finish ~bytes:14 k in
  Alcotest.(check bool) "deleted reads miss" true (r2.Router.reply = Proto.Miss)

let test_scan_fanout_merges_cluster () =
  (* an ordered scan fans out to every Up node and merges the replies:
     ascending keys, one entry per key, acked value lengths *)
  let _ring, _nodes, router = mk_cluster ~n:3 ~replicas:2 ~wq:2 ~rq:1 () in
  let orc = Run.oracle () in
  let t0 = Run.preload router orc ~n_keys:200 ~vlen:8 in
  Alcotest.(check int) "no scans yet" 0 (Router.scans router);
  let o = Router.call router ~at:t0 ~bytes:14 (Proto.Scan (0L, 50)) in
  (match o.Router.reply with
  | Proto.Values vs ->
    Alcotest.(check int) "limit honoured" 50 (List.length vs);
    let rec ascending = function
      | (a, _, _) :: ((b, _, _) :: _ as rest) ->
        Kv_common.Types.key_compare a b < 0 && ascending rest
      | _ -> true
    in
    Alcotest.(check bool) "ascending and deduplicated" true (ascending vs);
    List.iter
      (fun (_, vlen, _) -> Alcotest.(check int) "acked vlen" 8 vlen)
      vs
  | r -> Alcotest.failf "scan earned %a, not Values" Proto.pp_reply r);
  Alcotest.(check int) "scan counted" 1 (Router.scans router);
  Alcotest.(check bool) "reply takes time" true (o.Router.finish > t0);
  Alcotest.(check bool) "nothing acked" true (o.Router.acked = []);
  (* the scan audit reproduces the oracle's whole live set *)
  let checked, mms = Run.scan_divergence router orc in
  Alcotest.(check int) "audited every live key" 200 checked;
  Alcotest.(check int) "scan audit clean" 0 (List.length mms);
  (* a quorum-acked delete disappears from the next scan *)
  let victim =
    match o.Router.reply with
    | Proto.Values ((k, _, _) :: _) -> k
    | _ -> Alcotest.fail "no scanned key"
  in
  let d =
    Router.submit_write router ~at:o.Router.finish ~bytes:14 victim
      Node.Delete
  in
  Alcotest.(check bool) "delete acked" true (d.Router.reply = Proto.Ok);
  let o2 =
    Router.call router ~at:d.Router.finish ~bytes:14 (Proto.Scan (0L, 50))
  in
  match o2.Router.reply with
  | Proto.Values vs ->
    Alcotest.(check bool) "deleted key suppressed" true
      (not (List.exists (fun (k, _, _) -> k = victim) vs))
  | r -> Alcotest.failf "rescan earned %a, not Values" Proto.pp_reply r

let test_scan_refused_when_vshard_uncovered () =
  (* a vshard with no Up owner makes a complete scan impossible: the
     router must refuse rather than answer with a silent gap, and keep
     serving point reads for the surviving vshards *)
  let ring, nodes, router = mk_cluster ~n:3 ~replicas:2 ~wq:2 ~rq:1 () in
  for i = 0 to 49 do
    ignore (Router.submit_write router ~at:0.0 ~bytes:26 (key i) (Node.Put 8))
  done;
  List.iter
    (fun nid -> Node.kill ~tear:false ~seed:(10 + nid) nodes.(nid))
    (Ring.owners ring 0);
  let before = Router.unavailable router in
  let o = Router.call router ~at:1e6 ~bytes:14 (Proto.Scan (0L, 10)) in
  (match o.Router.reply with
  | Proto.Err _ -> ()
  | r -> Alcotest.failf "scan earned %a, not Err" Proto.pp_reply r);
  Alcotest.(check int) "unavailability counted" (before + 1)
    (Router.unavailable router);
  Alcotest.(check int) "scan counted" 1 (Router.scans router);
  Alcotest.(check bool) "nothing acked" true (o.Router.acked = []);
  (* the same client keeps working on a covered vshard *)
  let rec covered i =
    if i >= 50 then Alcotest.fail "no key on a surviving owner"
    else if
      List.exists
        (fun nid -> Node.status nodes.(nid) = Node.Up)
        (Ring.owners_of_key ring (key i))
    then key i
    else covered (i + 1)
  in
  let k = covered 0 in
  let r = Router.submit_read router ~at:o.Router.finish ~bytes:14 k in
  Alcotest.(check bool) "later read still served" true
    (r.Router.reply = Proto.Hit 8)

let test_quorum_failfast_on_owner_down () =
  let ring, nodes, router = mk_cluster ~n:3 ~replicas:2 ~wq:2 ~rq:1 () in
  let k = key 42 in
  ignore (Router.submit_write router ~at:0.0 ~bytes:26 k (Node.Put 8));
  let owners = Ring.owners_of_key ring k in
  let dead = List.hd owners and alive = List.nth owners 1 in
  Node.kill ~tear:false ~seed:1 nodes.(dead);
  (* writes lose their quorum: refused and applied nowhere *)
  let o = Router.submit_write router ~at:1e6 ~bytes:26 k (Node.Put 9) in
  Alcotest.(check bool) "write refused" true (o.Router.reply = Proto.Err "quorum");
  Alcotest.(check int) "nothing acked" 0 (List.length o.Router.acked);
  Alcotest.(check (option int)) "survivor kept the old version" (Some 1)
    (Node.version nodes.(alive) k);
  Alcotest.(check int) "quorum failure counted" 1
    (Router.quorum_failures router);
  (* reads survive on the remaining replica *)
  let r = Router.submit_read router ~at:2e6 ~bytes:14 k in
  Alcotest.(check bool) "read served by survivor" true
    (r.Router.reply = Proto.Hit 8);
  (* both owners down: unavailable *)
  Node.kill ~tear:false ~seed:2 nodes.(alive);
  let r2 = Router.submit_read router ~at:3e6 ~bytes:14 k in
  Alcotest.(check bool) "no owner up" true
    (r2.Router.reply = Proto.Err "unavailable");
  Alcotest.(check int) "unavailability counted" 1 (Router.unavailable router)

let test_apply_is_idempotent () =
  let _, nodes, _ = mk_cluster ~n:2 ~replicas:2 ~wq:2 ~rq:1 () in
  let n = nodes.(0) in
  let c = Clock.create () in
  Alcotest.(check bool) "fresh stamp applies" true
    (Node.apply n c ~stamp:5 (key 1) (Node.Put 8));
  Alcotest.(check bool) "replay of same stamp is a no-op" false
    (Node.apply n c ~stamp:5 (key 1) (Node.Put 8));
  Alcotest.(check bool) "older stamp is a no-op" false
    (Node.apply n c ~stamp:3 (key 1) (Node.Put 16));
  Alcotest.(check bool) "newer stamp applies" true
    (Node.apply n c ~stamp:9 (key 1) Node.Delete);
  Alcotest.(check (option int)) "version tracks newest" (Some 9)
    (Node.version n (key 1))

let test_stale_route_redirects_not_misroutes () =
  let ring, _, router = mk_cluster ~n:3 ~replicas:2 ~wq:2 ~rq:1 () in
  let k = key 11 in
  ignore (Router.submit_write router ~at:0.0 ~bytes:26 k (Node.Put 8));
  let v = Ring.vshard_of ring k in
  (* reorder the owner list behind the router's cache: the cached route
     is now stale, so the next request must bounce once and still be
     answered correctly by a real owner *)
  Ring.set_override ring ~vshard:v (List.rev (Ring.owners ring v));
  let before = Router.redirects router in
  let r = Router.submit_read router ~at:1e6 ~bytes:14 k in
  Alcotest.(check bool) "still answered correctly" true
    (r.Router.reply = Proto.Hit 8);
  Alcotest.(check int) "one redirect" (before + 1) (Router.redirects router);
  Alcotest.(check int) "never served by a non-owner" 0
    (Router.misrouted router)

(* ------------------------- failover end to end ---------------------------- *)

let test_failover_no_acked_write_lost () =
  let sc = Harness.Cluster_bench.failover ~seed:3 tiny in
  let r = sc.Harness.Cluster_bench.sc_result in
  let router = sc.Harness.Cluster_bench.sc_setup.Harness.Cluster_bench.router in
  Alcotest.(check bool) "ran a real load" true (r.Run.r_ops > 1000);
  Alcotest.(check bool) "writes were refused while down (fail-fast)" true
    (Router.quorum_failures router > 0);
  (match r.Run.r_catchups with
  | [ cu ] ->
      Alcotest.(check bool) "catch-up streamed the lost tail" true
        (Membership.shipped cu >= 0);
      Alcotest.(check int) "rejoined node is the victim"
        Harness.Cluster_bench.victim (Membership.node cu)
  | _ -> Alcotest.fail "expected exactly one completed catch-up");
  let victim =
    Router.node router Harness.Cluster_bench.victim
  in
  Alcotest.(check bool) "victim is readable again" true
    (Node.status victim = Node.Up);
  Alcotest.(check int) "no misroutes" 0 (Router.misrouted router);
  Alcotest.(check bool) "audit covered every acked key" true
    (sc.Harness.Cluster_bench.sc_checked >= r.Run.r_acked);
  Alcotest.(check int) "zero divergence: no acked write lost" 0
    (List.length sc.Harness.Cluster_bench.sc_mismatches)

(* ------------------------- migration end to end --------------------------- *)

let test_migration_dual_write_cutover_cleanup () =
  let sc = Harness.Cluster_bench.rebalance ~seed:4 tiny in
  let r = sc.Harness.Cluster_bench.sc_result in
  let s = sc.Harness.Cluster_bench.sc_setup in
  let router = s.Harness.Cluster_bench.router in
  let m =
    match r.Run.r_migrations with
    | [ m ] -> m
    | _ -> Alcotest.fail "expected exactly one migration"
  in
  Alcotest.(check bool) "migration finished and cleaned" true
    (Migration.phase m = Migration.Cleaned);
  Alcotest.(check bool) "copied the snapshot" true
    (Migration.total m > 0 && Migration.copied m <= Migration.total m);
  let ring = Router.ring router in
  let owners = Ring.owners ring (Migration.vshard m) in
  Alcotest.(check bool) "destination owns the vshard" true
    (List.mem (Migration.to_node m) owners);
  Alcotest.(check bool) "source no longer owns it" true
    (not (List.mem (Migration.from_node m) owners));
  Alcotest.(check int) "no misroutes across cutover" 0
    (Router.misrouted router);
  (* force one more request at the migrated vshard: even if the load
     never touched it after cutover, the stale route must bounce exactly
     through NotOwner, never serve from the old owner *)
  let rec find_key i =
    if i >= s.Harness.Cluster_bench.n_keys then
      Alcotest.fail "no key in migrated vshard"
    else if Ring.vshard_of ring (key i) = Migration.vshard m then key i
    else find_key (i + 1)
  in
  let k = find_key 0 in
  let probe = Router.submit_read router ~at:(r.Run.r_end_ns +. 1e6) ~bytes:14 k in
  Alcotest.(check bool) "migrated key still readable" true
    (match probe.Router.reply with
    | Proto.Hit _ | Proto.Value _ | Proto.Miss -> true
    | _ -> false);
  Alcotest.(check bool) "cutover surfaced as redirects" true
    (Router.redirects router >= 1);
  Alcotest.(check int) "zero divergence after migration" 0
    (List.length sc.Harness.Cluster_bench.sc_mismatches);
  (* the source actually reclaimed the moved keys *)
  let src = Router.node router (Migration.from_node m) in
  let leaked = ref 0 in
  Node.iter_versions src (fun k _ ->
      if Ring.vshard_of ring k = Migration.vshard m then incr leaked);
  Alcotest.(check int) "source dropped the moved vshard" 0 !leaked

(* --------------------------- preload + audit ------------------------------ *)

let test_preload_replicates_and_audits_clean () =
  let _, _, router = mk_cluster ~n:3 ~replicas:2 ~wq:2 ~rq:1 () in
  let orc = Run.oracle () in
  let t0 = Run.preload router orc ~n_keys:500 ~vlen:8 in
  Alcotest.(check bool) "preload advances time" true (t0 > 0.0);
  let checked, mms = Run.divergence router orc in
  Alcotest.(check int) "two replica reads per key" 1000 checked;
  Alcotest.(check int) "clean audit" 0 (List.length mms);
  let scanned, smms = Run.scan_divergence router orc in
  Alcotest.(check int) "scan audit covers the live set" 500 scanned;
  Alcotest.(check int) "clean scan audit" 0 (List.length smms)

(* ------------------------- modelled fingerprint --------------------------- *)

(* Two seeded cluster runs whose modelled results are pinned exactly (hex
   floats), so a refactor of the ring, router or run loop must leave the
   cluster's modelled behaviour bit-identical:

   - a default-policy run: open-loop arrivals and closed-loop connections
     interleaved through one [Run.run];
   - a defensive-policy run under 1% frame loss, with a live migration,
     a node kill and its rejoin (catch-up) in the measured window.

   Histogram sums are pinned through their means (sum / count), counts
   alongside; catch-up and migration report how many entries they applied. *)
let fingerprint_run ~defensive =
  let n = 4 in
  let nodes =
    Array.init n (fun i ->
        Node.create ~id:i
          ((Harness.Stores.chameleon ~name:(Printf.sprintf "f%d" i) tiny)
             .Harness.Stores.make ()))
  in
  let ring =
    Ring.create ~vshards:32 ~replicas:2 ~nodes:(List.init n Fun.id) ()
  in
  let policy = if defensive then Router.defensive else Router.default_policy in
  let router =
    Router.create ~policy ~seed:7 ~write_quorum:2 ~read_quorum:1 ring nodes
  in
  let orc = Run.oracle () in
  let n_keys = 1000 in
  let t0 = Run.preload router orc ~n_keys ~vlen:8 in
  let reqgen = Service.Loadgen.mixed_reqgen ~n_keys ~get_frac:0.9 ~vlen:8 in
  let duration_ns = 2e6 in
  let arrivals =
    Service.Loadgen.open_loop ~seed:11 ~conns:4
      ~process:(Service.Loadgen.Poisson { rate_mops = 1.0 })
      ~reqgen ~duration_ns ~start_at:t0 ()
  in
  let r =
    if not defensive then
      let closed =
        Service.Loadgen.closed_loop ~seed:13 ~conns:4 ~reqs_per_conn:200
          ~reqgen ()
      in
      Run.run ~start_at:t0 ~arrivals ~closed ~events:[] router orc
    else begin
      let nm = Fault.Netem.create ~seed:5 () in
      Fault.Netem.add_rule nm ~from_ns:t0 (Fault.Netem.Loss 0.01);
      Router.set_netem router (Some nm);
      (* the first vshard node 0 owns moves to its first non-owner *)
      let rec first p i = if p i then i else first p (i + 1) in
      let vshard = first (fun v -> List.mem 0 (Ring.owners ring v)) 0 in
      let to_ =
        first (fun i -> not (List.mem i (Ring.owners ring vshard))) 1
      in
      let victim = if to_ = 1 then 2 else 1 in
      let at f = t0 +. (f *. duration_ns) in
      let events =
        [ { Run.at = at 0.2; ev = Run.Migrate { vshard; from_ = 0; to_ } };
          { Run.at = at 0.3; ev = Run.Kill victim };
          { Run.at = at 0.55; ev = Run.Rejoin victim } ]
      in
      let cfg =
        { Run.window_ns = duration_ns /. 8.0; chunk = 256; tick_ns = 25_000.0;
          seed = 3 }
      in
      let r = Run.run ~cfg ~start_at:t0 ~arrivals ~events router orc in
      Router.set_netem router None;
      r
    end
  in
  let h name h =
    Printf.sprintf "%s %d/%h" name (Metrics.Histogram.count h)
      (Metrics.Histogram.mean h)
  in
  Printf.sprintf
    "end %h %s %s errs %d acked %d redirects %d applies %d retries %d \
     hedges %d timeouts %d restart %s caught-up %s migrated %s"
    r.Run.r_end_ns (h "get" r.Run.r_get_h) (h "put" r.Run.r_put_h)
    r.Run.r_errs r.Run.r_acked (Router.redirects router)
    (Router.replica_applies router) (Router.retries router)
    (Router.hedges router) (Router.timeouts router)
    (String.concat ","
       (Array.to_list
          (Array.map
             (fun nd -> Printf.sprintf "%h" (Node.restart_ns nd))
             nodes)))
    (String.concat ","
       (List.map
          (fun cu -> string_of_int (Membership.applied cu))
          r.Run.r_catchups))
    (String.concat ","
       (List.map
          (fun m -> string_of_int (Migration.copied m))
          r.Run.r_migrations))

(* The bit-identity reference: a change to either value is a change in
   modelled behaviour, never a refactor. *)
let pinned_default =
  "end 0x1.40a844ae9a586p+22 get 2577/0x1.c0fe87cba5925p+11 \
   put 257/0x1.a20a817d92321p+11 errs 0 acked 1000 redirects 0 \
   applies 2514 retries 0 hedges 0 timeouts 0 \
   restart 0x0p+0,0x0p+0,0x0p+0,0x0p+0 caught-up  migrated "

let pinned_defensive =
  "end 0x1.5bf95809fd674p+22 get 1855/0x1.45f234ec04d4bp+12 \
   put 179/0x1.aad92afc0b1c4p+13 errs 24 acked 1000 redirects 1 \
   applies 2310 retries 7 hedges 63 timeouts 7 \
   restart 0x0p+0,0x0p+0,0x1.c6f33333334p+12,0x0p+0 caught-up 12 \
   migrated 39"

let test_fingerprint () =
  Alcotest.(check string) "default policy" pinned_default
    (fingerprint_run ~defensive:false);
  Alcotest.(check string) "defensive, loss, migrate, kill, rejoin"
    pinned_defensive
    (fingerprint_run ~defensive:true)

let () =
  Alcotest.run "cluster"
    [ ( "ring",
        [ Alcotest.test_case "deterministic and balanced" `Quick
            test_ring_deterministic_and_balanced;
          Alcotest.test_case "minimal disruption on add" `Quick
            test_ring_minimal_disruption;
          Alcotest.test_case "override set/clear" `Quick test_ring_override;
          Alcotest.test_case "owner table matches preference" `Quick
            test_ring_owner_table ] );
      ( "quorum",
        [ Alcotest.test_case "replicated write, versioned read" `Quick
            test_quorum_write_and_read;
          Alcotest.test_case "fail-fast without quorum" `Quick
            test_quorum_failfast_on_owner_down;
          Alcotest.test_case "stamped apply is idempotent" `Quick
            test_apply_is_idempotent;
          Alcotest.test_case "stale route redirects, never misroutes" `Quick
            test_stale_route_redirects_not_misroutes;
          Alcotest.test_case "scan fan-out merges the cluster" `Quick
            test_scan_fanout_merges_cluster;
          Alcotest.test_case "scan refused when a vshard is uncovered" `Quick
            test_scan_refused_when_vshard_uncovered ] );
      ( "scenarios",
        [ Alcotest.test_case "failover: no acked write lost" `Quick
            test_failover_no_acked_write_lost;
          Alcotest.test_case "migration: dual-write, cutover, cleanup" `Quick
            test_migration_dual_write_cutover_cleanup;
          Alcotest.test_case "preload replicates and audits clean" `Quick
            test_preload_replicates_and_audits_clean ] );
      ( "pinned",
        [ Alcotest.test_case "modelled output fingerprint" `Quick
            test_fingerprint ] ) ]
