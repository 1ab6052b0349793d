(* Shared plumbing for the cluster experiment family.

   Builds N-node clusters (one full store per node, each on its own
   simulated device), preloads them through the router, and runs the
   three scenarios the evaluation reports: a closed-loop throughput
   scaling curve, a node kill + rejoin timeline, and a live shard
   migration timeline — each ending in the oracle divergence audit.
   The `cluster` and `chaos` experiments drive these entry points; every
   seed is explicit so a run is reproducible from its record. *)

module Histogram = Metrics.Histogram
module Loadgen = Service.Loadgen
module Run = Cluster.Run
module Netem = Fault.Netem
module Router = Cluster.Router

type setup = {
  router : Cluster.Router.t;
  orc : Run.oracle;
  t0 : float; (* preload finish time *)
  n_keys : int;
}

let build scale ~n ~replicas ~wq ~rq ?(vshards = 64) ?n_keys
    ?(policy = Cluster.Router.default_policy) ?(rseed = 0) () =
  let n_keys =
    Option.value n_keys ~default:(scale.Stores.load_keys / 2)
  in
  let nodes =
    Array.init n (fun i ->
        let spec =
          Stores.chameleon ~name:(Printf.sprintf "node%d" i) scale
        in
        Cluster.Node.create ~id:i (spec.Stores.make ()))
  in
  let ring =
    Cluster.Ring.create ~vshards ~replicas ~nodes:(List.init n Fun.id) ()
  in
  let router =
    Cluster.Router.create ~policy ~seed:rseed ~write_quorum:wq ~read_quorum:rq
      ring nodes
  in
  let orc = Run.oracle () in
  let t0 = Run.preload router orc ~n_keys ~vlen:scale.Stores.vlen in
  { router; orc; t0; n_keys }

let mops (r : Run.result) ~since =
  if r.Run.r_end_ns <= since then 0.0
  else float_of_int r.Run.r_ops /. (r.Run.r_end_ns -. since) *. 1000.0

(* -- scaling curve --------------------------------------------------- *)

type scaling_point = {
  sp_nodes : int;
  sp_replicas : int;
  sp_ops : int;
  sp_sim_ns : float;
  sp_mops : float;
  sp_get_p99 : float;
  sp_put_p99 : float;
}

let scaling ~seed ?(get_frac = 0.9) scale node_counts =
  List.map
    (fun n ->
      let replicas = min 2 n in
      let s = build scale ~n ~replicas ~wq:replicas ~rq:1 () in
      let conns = 8 * n in
      let closed =
        Loadgen.closed_loop ~seed ~conns
          ~reqs_per_conn:(max 64 (scale.Stores.sweep_ops / conns))
          ~reqgen:
            (Loadgen.mixed_reqgen ~n_keys:s.n_keys ~get_frac
               ~vlen:scale.Stores.vlen)
          ()
      in
      let r = Run.run ~start_at:s.t0 ~closed ~events:[] s.router s.orc in
      let checked, mms = Run.divergence s.router s.orc in
      if mms <> [] then
        failwith
          (Printf.sprintf "cluster scaling: %d/%d divergent replica reads"
             (List.length mms) checked);
      let scan_checked, scan_mms = Run.scan_divergence s.router s.orc in
      if scan_mms <> [] then
        failwith
          (Printf.sprintf "cluster scaling: %d/%d divergent scan entries"
             (List.length scan_mms) scan_checked);
      { sp_nodes = n;
        sp_replicas = replicas;
        sp_ops = r.Run.r_ops;
        sp_sim_ns = r.Run.r_end_ns -. s.t0;
        sp_mops = mops r ~since:s.t0;
        sp_get_p99 = Histogram.percentile r.Run.r_get_h 99.0;
        sp_put_p99 = Histogram.percentile r.Run.r_put_h 99.0 })
    node_counts

(* -- timeline scenarios ---------------------------------------------- *)

type scenario = {
  sc_label : string;
  sc_setup : setup;
  sc_probe_mops : float; (* closed-loop capacity before the open phase *)
  sc_rate_mops : float;  (* offered open-loop rate *)
  sc_start : float;      (* open-loop phase start *)
  sc_duration_ns : float;
  sc_result : Run.result;
  sc_marks : (float * string) list; (* event annotations for the timeline *)
  sc_checked : int;
  sc_residue : int; (* unacked-write residue (loss runs only; see below) *)
  sc_mismatches : Run.mismatch list;
}

(* Common shape: build a 4-node, 2-replica cluster, probe its closed-loop
   capacity, then offer an open-loop 90/10 mix at half that capacity
   while [mk_events] injects faults or migrations.  With [loss] > 0 the
   open phase runs under that frame-drop rate through a seeded netem
   injector and the defensive router policy; the end-of-run audit then
   uses the partition-aware {!Run.chaos_divergence} (a replica may hold
   unacked residue) and the scan audit is skipped — under loss a timed-out
   scan is legal, so entry-exact comparison would be noise. *)
let scenario ~seed ~label ~mk_events ?(loss = 0.0) scale =
  let n = 4 in
  let policy =
    if loss > 0.0 then Cluster.Router.defensive
    else Cluster.Router.default_policy
  in
  let s = build scale ~n ~replicas:2 ~wq:2 ~rq:1 ~policy ~rseed:seed () in
  let reqgen =
    Loadgen.mixed_reqgen ~n_keys:s.n_keys ~get_frac:0.9
      ~vlen:scale.Stores.vlen
  in
  let probe_closed =
    Loadgen.closed_loop ~seed ~conns:16
      ~reqs_per_conn:(max 64 (scale.Stores.sweep_ops / 64))
      ~reqgen ()
  in
  let probe =
    Run.run ~start_at:s.t0 ~closed:probe_closed ~events:[] s.router s.orc
  in
  let cap = mops probe ~since:s.t0 in
  let t1 = probe.Run.r_end_ns in
  let rate = 0.5 *. cap in
  let duration_ns =
    float_of_int scale.Stores.sweep_ops /. rate *. 1000.0
  in
  let arrivals =
    Loadgen.open_loop ~seed:(seed + 100) ~conns:8
      ~process:(Loadgen.Poisson { rate_mops = rate })
      ~reqgen ~duration_ns ~start_at:t1 ()
  in
  if loss > 0.0 then begin
    let nm = Netem.create ~seed () in
    Netem.add_rule nm ~from_ns:t1 (Netem.Loss loss);
    Cluster.Router.set_netem s.router (Some nm)
  end;
  let events, marks = mk_events s ~t1 ~duration_ns in
  let cfg =
    { Run.window_ns = duration_ns /. 40.0;
      chunk = 512;
      tick_ns = 25_000.0;
      seed }
  in
  let r = Run.run ~cfg ~start_at:t1 ~arrivals ~events s.router s.orc in
  Cluster.Router.set_netem s.router None;
  let checked, residue, mms =
    if loss > 0.0 then Run.chaos_divergence s.router s.orc
    else
      let checked, mms = Run.divergence s.router s.orc in
      (checked, 0, mms)
  in
  (* the scan path must agree with the oracle too: one full-keyspace
     fan-out, reconciled per key, compared entry by entry *)
  let scan_mms =
    if loss > 0.0 then []
    else snd (Run.scan_divergence s.router s.orc)
  in
  let mms = mms @ scan_mms in
  { sc_label = label;
    sc_setup = s;
    sc_probe_mops = cap;
    sc_rate_mops = rate;
    sc_start = t1;
    sc_duration_ns = duration_ns;
    sc_result = r;
    sc_marks = marks;
    sc_checked = checked;
    sc_residue = residue;
    sc_mismatches = mms }

let victim = 1 (* the node the failover scenario kills *)

let failover ~seed ?loss scale =
  scenario ~seed ~label:"failover" ?loss scale
    ~mk_events:(fun _s ~t1 ~duration_ns ->
      let kill_at = t1 +. (0.30 *. duration_ns) in
      let rejoin_at = t1 +. (0.55 *. duration_ns) in
      ( [ { Run.at = kill_at; ev = Run.Kill victim };
          { Run.at = rejoin_at; ev = Run.Rejoin victim } ],
        [ (kill_at, Printf.sprintf "kill node%d" victim);
          (rejoin_at, Printf.sprintf "rejoin node%d" victim) ] ))

(* First vshard owned by node 0, migrated to a non-owner. *)
let pick_migration router =
  let ring = Cluster.Router.ring router in
  let n_nodes = Array.length (Cluster.Router.nodes router) in
  let rec find v =
    if v >= Cluster.Ring.vshards ring then
      failwith "cluster rebalance: node0 owns no vshard"
    else if List.mem 0 (Cluster.Ring.owners ring v) then v
    else find (v + 1)
  in
  let vshard = find 0 in
  let owners = Cluster.Ring.owners ring vshard in
  let rec dest i =
    if i >= n_nodes then failwith "cluster rebalance: no destination node"
    else if List.mem i owners then dest (i + 1)
    else i
  in
  (vshard, dest 0)

let rebalance ~seed ?loss scale =
  scenario ~seed ~label:"rebalance" ?loss scale
    ~mk_events:(fun s ~t1 ~duration_ns ->
      let vshard, to_ = pick_migration s.router in
      let at = t1 +. (0.30 *. duration_ns) in
      ( [ { Run.at; ev = Run.Migrate { vshard; from_ = 0; to_ } } ],
        [ (at, Printf.sprintf "migrate vshard %d: node0 -> node%d" vshard to_) ]
      ))

(* -- chaos sweep ------------------------------------------------------ *)

(* The chaos cells run a 5-node, 2-replica cluster with write quorum 2 —
   the write quorum spans the replica set, which is what makes the
   partition-aware audits sound (see {!Run.history_check}) — under the
   defensive router policy with hedging toggled per cell. *)

type partition_kind = P_none | P_sym | P_asym

let partition_name = function
  | P_none -> "none"
  | P_sym -> "sym"
  | P_asym -> "asym"

type chaos_cell = {
  cc_label : string;
  cc_loss : float;
  cc_partition : partition_kind;
  cc_hedge : bool;
  cc_rate_mops : float;   (* offered open-loop rate *)
  cc_duration_ns : float;
  cc_issued : int;        (* single ops issued over the open phase *)
  cc_ok : int;            (* of those, acked / answered OK *)
  cc_availability : float;
  cc_goodput_mops : float; (* OK ops per simulated time *)
  cc_get_p99 : float;      (* whole open phase, OK gets *)
  cc_event_get_p99 : float; (* inside the fault window, OK gets *)
  cc_event_availability : float;
  cc_retries : int;
  cc_timeouts : int;
  cc_hedges : int;
  cc_hedge_wins : int;
  cc_late_acks : int;
  cc_routed_around : int;
  cc_suspicions : int;
  cc_dedup_hits : int;
  cc_checked : int;       (* chaos-divergence replica checks *)
  cc_residue : int;       (* replicas holding unacked-newer versions *)
  cc_mismatches : Run.mismatch list; (* must be [] — acked-write loss *)
  cc_reads_checked : int;
  cc_violations : string list; (* must be [] — stale/phantom reads *)
}

let cell_clean c = c.cc_mismatches = [] && c.cc_violations = []

(* Per-window stats out of the recorded history: ops issued in
   [w0, w1), how many completed OK, and the OK-get latency histogram. *)
let window_stats history ~w0 ~w1 =
  let issued = ref 0 and ok = ref 0 in
  let get_h = Histogram.create () in
  List.iter
    (function
      | Run.H_read { hr_at; hr_fin; hr_ok; _ }
        when hr_at >= w0 && hr_at < w1 ->
          incr issued;
          if hr_ok then begin
            incr ok;
            Histogram.record get_h (hr_fin -. hr_at)
          end
      | Run.H_write { hw_at; hw_acked; _ } when hw_at >= w0 && hw_at < w1 ->
          incr issued;
          if hw_acked then incr ok
      | _ -> ())
    history;
  (!issued, !ok, get_h)

let total_dedup_hits router =
  Array.fold_left
    (fun acc n -> acc + Cluster.Node.dedup_hits n)
    0
    (Router.nodes router)

(* One chaos cell: probe a clean closed-loop capacity, then run the open
   phase at half of it under [loss] i.i.d. frame drops (whole phase) and
   a scripted partition over [35%, 60%) of the phase — the two highest
   nodes against the client plus the rest; asymmetric cuts only
   minority -> majority, the gray-failure shape where requests land but
   acks vanish.  The netem injector is detached before the audits, whose
   probe traffic must see a perfect network.  [rate] pins the offered
   load (for matched-pair comparisons); by default it is derived from
   the probe. *)
let chaos_cell ~seed ?(loss = 0.01) ?(partition = P_asym)
    ?(hedge = true) ?rate ?fail_slow scale =
  let n = 5 in
  let policy = { Router.defensive with hedge; route_around = hedge } in
  let s = build scale ~n ~replicas:2 ~wq:2 ~rq:1 ~policy ~rseed:seed () in
  let reqgen =
    Loadgen.mixed_reqgen ~n_keys:s.n_keys ~get_frac:0.9
      ~vlen:scale.Stores.vlen
  in
  let probe_closed =
    Loadgen.closed_loop ~seed ~conns:16
      ~reqs_per_conn:(max 64 (scale.Stores.sweep_ops / 64))
      ~reqgen ()
  in
  let probe =
    Run.run ~start_at:s.t0 ~closed:probe_closed ~events:[] s.router s.orc
  in
  let cap = mops probe ~since:s.t0 in
  let t1 = probe.Run.r_end_ns in
  let rate = match rate with Some r -> r | None -> 0.5 *. cap in
  let duration_ns = float_of_int scale.Stores.sweep_ops /. rate *. 1000.0 in
  let arrivals =
    Loadgen.open_loop ~seed:(seed + 100) ~conns:8
      ~process:(Loadgen.Poisson { rate_mops = rate })
      ~reqgen ~duration_ns ~start_at:t1 ()
  in
  let w0 = t1 +. (0.35 *. duration_ns)
  and w1 = t1 +. (0.60 *. duration_ns) in
  let nm = Netem.create ~seed () in
  if loss > 0.0 then Netem.add_rule nm ~from_ns:t1 (Netem.Loss loss);
  let minority = [ Netem.Node (n - 2); Netem.Node (n - 1) ] in
  let majority =
    Netem.Client :: List.init (n - 2) (fun i -> Netem.Node i)
  in
  (match partition with
  | P_none -> ()
  | P_sym ->
      Netem.add_rule nm ~from_ns:w0 ~until_ns:w1
        (Netem.Partition { a = minority; b = majority; symmetric = true })
  | P_asym ->
      Netem.add_rule nm ~from_ns:w0 ~until_ns:w1
        (Netem.Partition { a = minority; b = majority; symmetric = false }));
  (match fail_slow with
  | Some factor ->
      Netem.add_rule nm ~from_ns:w0 ~until_ns:w1
        (Netem.Fail_slow { node = 1; factor })
  | None -> ());
  let dedup0 = total_dedup_hits s.router in
  let retries0 = Router.retries s.router
  and timeouts0 = Router.timeouts s.router
  and hedges0 = Router.hedges s.router
  and hedge_wins0 = Router.hedge_wins s.router
  and late0 = Router.late_acks s.router
  and around0 = Router.routed_around s.router in
  let susp0 = Cluster.Detector.suspicions (Router.detector s.router) in
  Router.set_netem s.router (Some nm);
  let cfg =
    { Run.window_ns = duration_ns /. 40.0;
      chunk = 512;
      tick_ns = 25_000.0;
      seed }
  in
  let r =
    Run.run ~cfg ~start_at:t1 ~arrivals ~record_history:true ~events:[]
      s.router s.orc
  in
  Router.set_netem s.router None;
  let checked, residue, mms = Run.chaos_divergence s.router s.orc in
  let reads_checked, violations = Run.history_check r.Run.r_history in
  let issued, ok, get_h =
    window_stats r.Run.r_history ~w0:t1 ~w1:(t1 +. duration_ns)
  in
  let ev_issued, ev_ok, ev_get_h = window_stats r.Run.r_history ~w0 ~w1 in
  let label =
    Printf.sprintf "loss=%.3f part=%s hedge=%s%s" loss
      (partition_name partition)
      (if hedge then "on" else "off")
      (match fail_slow with
      | Some f -> Printf.sprintf " slow=%gx" f
      | None -> "")
  in
  { cc_label = label;
    cc_loss = loss;
    cc_partition = partition;
    cc_hedge = hedge;
    cc_rate_mops = rate;
    cc_duration_ns = duration_ns;
    cc_issued = issued;
    cc_ok = ok;
    cc_availability =
      (if issued = 0 then 1.0 else float_of_int ok /. float_of_int issued);
    cc_goodput_mops = float_of_int ok /. duration_ns *. 1000.0;
    cc_get_p99 = Histogram.percentile get_h 99.0;
    cc_event_get_p99 = Histogram.percentile ev_get_h 99.0;
    cc_event_availability =
      (if ev_issued = 0 then 1.0
       else float_of_int ev_ok /. float_of_int ev_issued);
    cc_retries = Router.retries s.router - retries0;
    cc_timeouts = Router.timeouts s.router - timeouts0;
    cc_hedges = Router.hedges s.router - hedges0;
    cc_hedge_wins = Router.hedge_wins s.router - hedge_wins0;
    cc_late_acks = Router.late_acks s.router - late0;
    cc_routed_around = Router.routed_around s.router - around0;
    cc_suspicions =
      Cluster.Detector.suspicions (Router.detector s.router) - susp0;
    cc_dedup_hits = total_dedup_hits s.router - dedup0;
    cc_checked = checked;
    cc_residue = residue;
    cc_mismatches = mms;
    cc_reads_checked = reads_checked;
    cc_violations = violations }

(* The reported sweep: loss rate x partition scenario x hedge on/off.
   Every cell must end audit-clean. *)
let chaos_sweep ~seed scale =
  List.concat_map
    (fun loss ->
      List.concat_map
        (fun partition ->
          List.map
            (fun hedge -> chaos_cell ~seed ~loss ~partition ~hedge scale)
            [ true; false ])
        [ P_none; P_sym; P_asym ])
    [ 0.001; 0.01 ]

(* Matched pair for the fail-slow gate: node 1 serves 10x slower over the
   fault window; both cells run fresh clusters at the SAME offered rate
   (pinned from the no-hedge cell's own probe via a first throwaway
   probe), one with hedging + route-around, one with neither.  The gate
   compares OK-get p99 inside the window. *)
let fail_slow_pair ~seed ?(factor = 10.0) scale =
  (* pin the rate: one cheap probe on a throwaway cluster *)
  let s = build scale ~n:5 ~replicas:2 ~wq:2 ~rq:1 ~rseed:seed () in
  let reqgen =
    Loadgen.mixed_reqgen ~n_keys:s.n_keys ~get_frac:0.9
      ~vlen:scale.Stores.vlen
  in
  let probe =
    Run.run ~start_at:s.t0
      ~closed:
        (Loadgen.closed_loop ~seed ~conns:16
           ~reqs_per_conn:(max 64 (scale.Stores.sweep_ops / 64))
           ~reqgen ())
      ~events:[] s.router s.orc
  in
  let rate = 0.5 *. mops probe ~since:s.t0 in
  let cell hedge =
    chaos_cell ~seed ~loss:0.0 ~partition:P_none ~hedge ~rate
      ~fail_slow:factor scale
  in
  (cell false, cell true)

(* Zero-fault overhead check: closed-loop throughput under the defensive
   policy with an (empty) injector attached, against the default policy
   with none — the deadline/hedge/detector machinery must cost nearly
   nothing when the network is clean.  Returns (default mops, defensive
   mops). *)
let overhead_pair ~seed scale =
  let run_one policy netem =
    let s = build scale ~n:5 ~replicas:2 ~wq:2 ~rq:1 ~policy ~rseed:seed () in
    Router.set_netem s.router netem;
    let closed =
      Loadgen.closed_loop ~seed ~conns:16
        ~reqs_per_conn:(max 64 (scale.Stores.sweep_ops / 64))
        ~reqgen:
          (Loadgen.mixed_reqgen ~n_keys:s.n_keys ~get_frac:0.9
             ~vlen:scale.Stores.vlen)
        ()
    in
    let r = Run.run ~start_at:s.t0 ~closed ~events:[] s.router s.orc in
    Router.set_netem s.router None;
    let checked, mms = Run.divergence s.router s.orc in
    if mms <> [] then
      failwith
        (Printf.sprintf "cluster chaos overhead: %d/%d divergent reads"
           (List.length mms) checked);
    mops r ~since:s.t0
  in
  let base = run_one Router.default_policy None in
  let defended =
    run_one Router.defensive (Some (Netem.create ~seed ()))
  in
  (base, defended)
