(* The repository benchmark: one named workload at one seed per process.

   Each run sets the workload up [setup_reps] times (reporting the median
   set-up time), then drives a fixed number of simulated operations — a
   function of --seconds and --seed only — through the system in
   [segments] timed windows, checks every answer, and prints either the
   end-to-end metrics (untraced run) or the per-layer metrics (traced run,
   which times every store call from outside and turns on
   [Obs.Attribution]).  The last stdout line is one JSON object; the exit
   code is non-zero when any correctness gate failed.

   Two kinds of numbers come out.  Modelled numbers (simulated latency,
   throughput, write amplification, restart time) are deterministic per
   seed and identical between traced and untraced runs.  Host numbers
   (wall seconds, allocated words, heap) measure the simulator itself.
   Every arrival schedule, wire frame and YCSB op stream is generated
   outside the timed windows, and its cost is reported separately as
   [workload.gen_s]. *)

module Si = Kv_common.Store_intf
module Types = Kv_common.Types
module Stats = Pmem_sim.Stats
module Device = Pmem_sim.Device
module Clock = Pmem_sim.Clock
module H = Metrics.Histogram
module Stores = Harness.Stores
module Runner = Harness.Runner
module Server = Service.Server
module Proto = Service.Proto
module Loadgen = Service.Loadgen
module Ycsb = Workload.Ycsb
module Keyspace = Workload.Keyspace
module Attr = Obs.Attribution

(* -- fixed parameters -------------------------------------------------- *)

let threads = 8 (* simulated client threads, server workers *)
let vlen = 8
let setup_reps = 3
let segments = 16
let load_keys = 500_000
let cache_bytes = 4 lsl 20
let cluster_nodes = 4
let cluster_keys = 200_000

(* Simulated operations per wall second on the reference host (2 vCPU,
   OCaml 5.1).  A run executes [seconds x rate] operations: a fixed count,
   so every modelled number depends on --seconds and --seed only. *)
let rate_ycsb_a = 250_000.0
let rate_ycsb_e = 25.0
let rate_serve = 250_000.0
let rate_cluster = 110_000.0

(* Open-loop operating points, in Mop/s of offered load: the nominal
   rate, the ceiling of the SLO rate search, and the get p99 limit (ns) a
   searched rate must meet.  A quarter of the measured operations go to
   the search, split evenly across its [probes] rates, which bisect the
   range from nominal to ceiling to 1/64 of its width (about 2 % of the
   saturation rate on both workloads). *)
let serve_nominal = 10.0
let serve_ceiling = 40.0
let serve_slo_ns = 20_000.0
let cluster_nominal = 2.5
let cluster_ceiling = 10.0
let cluster_slo_ns = 30_000.0
let search_share = 0.25
let probes = 6

(* -- metric catalogue --------------------------------------------------- *)

let end_to_end =
  [ ("setup_s", "s"); ("host_kops", "kop/s");
    ("alloc_words_per_op", "words/op"); ("peak_heap_mb", "MiB");
    ("sim_mops", "Mop/s"); ("read_p50_ns", "ns"); ("read_tail_ns", "ns") ]

let get_stages =
  [ Attr.Get_cache; Get_memtable; Get_abi; Get_level_probe; Get_mph;
    Get_log_read ]

let put_stages =
  [ Attr.Put_batch_copy; Put_index_insert; Put_flush_stall;
    Put_compaction_stall; Put_group_commit ]

let stage_metric stage =
  let op =
    match Attr.op_of stage with
    | `Get -> "get_"
    | `Put -> "put_"
    | `Scan -> ""
    | `Svc | `Rpc -> assert false
  in
  let name =
    String.map (fun c -> if c = '-' then '_' else c) (Attr.name stage)
  in
  "core.stage." ^ op ^ name ^ "_ns"

let per_layer =
  [ ("harness.runner.self_s", "s"); ("harness.traced_host_kops", "kop/s");
    ("harness.raw_host_kops", "kop/s"); ("harness.calib_ms", "ms");
    ("workload.gen_s", "s");
    ("core.read.busy_s", "s"); ("core.write.busy_s", "s");
    ("core.scan.busy_s", "s"); ("core.read.wall_p50_ns", "ns");
    ("core.read.wall_p99_ns", "ns"); ("core.write.wall_p99_ns", "ns");
    ("core.scan.wall_p50_ns", "ns"); ("core.recover.wall_s", "s");
    ("core.flushes", "count"); ("core.upper_compactions", "count");
    ("core.last_compactions", "count"); ("core.stall_ns_per_put", "ns/op");
    ("core.get.memtable_frac", "frac"); ("core.get.abi_frac", "frac");
    ("core.get.last_frac", "frac"); ("core.put_p50_ns", "ns");
    ("core.put_p99_ns", "ns"); ("core.write_amp", "ratio");
    ("core.restart_us", "us") ]
  @ List.map
      (fun s -> (stage_metric s, "ns/op"))
      (get_stages @ put_stages @ [ Attr.Scan_stream ])
  @ [ ("kv.vlog.reads_per_get", "reads/op");
      ("kv.vlog.append_bytes_per_put", "B/op");
      ("kv.compaction_bytes_per_put", "B/op");
      ("pmem.read_ops_per_get", "reads/op");
      ("pmem.media_write_bytes_per_put", "B/op");
      ("pmem.persist_ops_per_put", "fences/op");
      ("pmem.read_wait_ns_per_op", "ns/op");
      ("pmem.write_wait_ns_per_op", "ns/op");
      ("cache.hit_frac", "frac"); ("cache.evictions", "count");
      ("cache.invalidations", "count");
      ("service.server.self_s", "s"); ("service.stage.decode_ns", "ns/op");
      ("service.stage.queue_ns", "ns/op");
      ("service.stage.execute_ns", "ns/op");
      ("service.stage.encode_ns", "ns/op");
      ("service.queue_wait_p99_ns", "ns"); ("service.max_depth", "count");
      ("service.grouped_write_frac", "frac");
      ("service.group_commits", "count"); ("service.shed", "count");
      ("cluster.run.self_s", "s");
      ("cluster.replica_applies_per_write", "applies/op");
      ("cluster.node_ops_max_over_mean", "ratio");
      ("cluster.redirects", "count"); ("cluster.quorum_failures", "count");
      ("cluster.unavailable", "count"); ("cluster.misrouted", "count");
      ("cluster.audit_s", "s");
      ("gc.minor_words_per_op", "words/op");
      ("gc.promoted_words_per_op", "words/op");
      ("gc.major_collections", "count") ]

(* -- run context and small helpers -------------------------------------- *)

type ctx = { seed : int; seconds : int; trace : bool }

let ops_for ctx rate =
  max segments (int_of_float (float_of_int ctx.seconds *. rate))

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int
let ctr delta name = Option.value ~default:0.0 (List.assoc_opt name delta)

(* Human-readable report lines, printed before the JSON result. *)
let note fmt = Printf.printf (fmt ^^ "\n%!")

(* Percentile of a latency histogram, interpolated linearly on its
   empirical CDF between the tops of adjacent non-empty buckets (the
   histogram alone only gives a bucket's upper edge, 4.4 % wide). *)
let pct h p =
  let q = p /. 100.0 in
  let rec go pv pf = function
    | [] -> H.max_value h
    | (v, f) :: rest ->
      if f < q then go v f rest
      else if f <= pf then v
      else pv +. ((q -. pf) /. (f -. pf) *. (v -. pv))
  in
  if H.count h = 0 then 0.0
  else go (H.min_value h) 0.0 (H.cdf h ~points:max_int ())

(* Percentile reported with its sample support: samples beyond it. *)
let tail h p name =
  let n = H.count h in
  let beyond = int_of_float (fi n *. (1.0 -. (p /. 100.0))) in
  note "  %-16s p%g = %.0f ns over %d samples (%d beyond)%s" name p (pct h p)
    n beyond
    (if beyond < 10 then "  [fewer than 10 beyond]" else "");
  pct h p

(* -- host speed ---------------------------------------------------------- *)

(* Identical work at a fixed seed ran up to ~50 % slower in one process
   than in the next on a shared host, and the host's speed drifts within
   a process too.  A reference kernel, timed just before and just after
   every set-up and after every window, tracks that: each interval's wall
   time is scaled by the kernel's mean time around it against [calib_ref_ns]
   (about its time on a quiet 2-vCPU host); the raw figures are printed
   and emitted per layer too.

   The kernel exercises memory the two ways the simulator does: it
   chases a random cycle through a ring of 128 MiB of off-heap memory (a
   dependent chain of cache and TLB misses: latency) and then streams
   through the whole ring once (bandwidth).  Either part alone tracked
   the host well on some workloads and poorly on others; their sum
   tracked it on every workload tried.  The kernel must not depend on
   the system under test.  The ring is larger than the host's last-level
   cache, so a pass over it starts from memory whatever a window left in
   the caches; and the kernel allocates nothing (checked at start-up), so
   it never runs a minor collection or a major-GC slice the system left
   pending, and the size or layout of the OCaml heap cannot reach it.
   Its median time over the process is emitted as [harness.calib_ms] and
   printed beside its time at start-up, before any workload exists. *)
let calib_ref_ns = 55e6
let calib_cells = 1 lsl 24
let calib_steps = 120_000

let calib_ring : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout calib_cells in
  for i = 0 to calib_cells - 1 do
    Bigarray.Array1.unsafe_set a i i
  done;
  (* Sattolo's shuffle: a single cycle through every cell *)
  let st = Random.State.make [| 17 |] in
  for i = calib_cells - 1 downto 1 do
    let j = Random.State.int st i in
    let t = Bigarray.Array1.unsafe_get a i in
    Bigarray.Array1.unsafe_set a i (Bigarray.Array1.unsafe_get a j);
    Bigarray.Array1.unsafe_set a j t
  done;
  a

let kernel () =
  let t0 = Probe.now () in
  let i = ref 0 and h = ref 0 in
  for _ = 1 to calib_steps do
    i := Bigarray.Array1.unsafe_get calib_ring !i;
    h := (!h * 31) lxor !i
  done;
  for j = 0 to calib_cells - 1 do
    h := !h + Bigarray.Array1.unsafe_get calib_ring j
  done;
  ignore (Sys.opaque_identity !h);
  Probe.now () - t0

(* Median of three kernel runs before any workload exists. *)
let calib_idle_ns =
  let w0 = Gc.minor_words () in
  let a = kernel () and b = kernel () and c = kernel () in
  if Gc.minor_words () <> w0 then failwith "calibration kernel allocates";
  fi (max (min a b) (min (max a b) c))

let calib_times = ref []

let calib_ns () =
  let dt = fi (kernel ()) in
  calib_times := dt :: !calib_times;
  dt

(* Host speed over an interval, from the kernel's time just before and
   just after it; above 1 when the host ran slower than the reference. *)
let slowness ~before ~after = (before +. after) /. 2.0 /. calib_ref_ns

(* -- timed windows ----------------------------------------------------- *)

(* Accumulates the measured phase across its windows: simulated ops, wall
   time (raw and host-speed scaled) and GC deltas.  Allocated words are
   the exact minor-heap count ([Gc.minor_words]) plus direct major-heap
   allocation (major less promoted words, which OCaml 5.1 only books at
   GC steps, so the total moves by up to ~2e-4 between runs of one
   seed). *)
type acc = {
  mutable ops : int;
  mutable wall_ns : int;
  mutable scaled_ns : float;
  mutable alloc : float;
  mutable minor : float;
  mutable promoted : float;
  mutable majors : int;
  mutable gen_ns : int;
}

let acc () =
  { ops = 0; wall_ns = 0; scaled_ns = 0.0; alloc = 0.0; minor = 0.0;
    promoted = 0.0; majors = 0; gen_ns = 0 }

(* A window's "before" kernel time is the last one taken, right after the
   previous window or set-up: only workload generation runs in between. *)
let window a f =
  let before =
    match !calib_times with t :: _ -> t | [] -> calib_ns ()
  in
  let g0 = Gc.quick_stat () in
  let m0 = Gc.minor_words () in
  let t0 = Probe.now () in
  let r, ops = f () in
  let t1 = Probe.now () in
  let m1 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  let slow = slowness ~before ~after:(calib_ns ()) in
  let minor = m1 -. m0 in
  let promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words in
  a.alloc <-
    a.alloc +. minor +. (g1.Gc.major_words -. g0.Gc.major_words) -. promoted;
  a.minor <- a.minor +. minor;
  a.promoted <- a.promoted +. promoted;
  a.majors <- a.majors + (g1.Gc.major_collections - g0.Gc.major_collections);
  a.ops <- a.ops + ops;
  a.wall_ns <- a.wall_ns + (t1 - t0);
  a.scaled_ns <- a.scaled_ns +. (fi (t1 - t0) /. slow);
  r

let generate a f =
  let t0 = Probe.now () in
  let r = f () in
  a.gen_ns <- a.gen_ns + (Probe.now () - t0);
  r

let raw_kops a = fi a.ops /. (fi a.wall_ns *. 1e-9) /. 1000.0

(* Measured-phase throughput at the reference host speed. *)
let host_kops a = fi a.ops /. (a.scaled_ns *. 1e-9) /. 1000.0

(* -- set-up ------------------------------------------------------------- *)

(* Build the workload [setup_reps] times, keeping the last instance; each
   repetition starts from a compacted heap.  Returns it and the median
   set-up seconds, scaled to the reference host speed like [host_kops]. *)
let setup_repeated build =
  let rec go k times last =
    if k = 0 then (Option.get last, times)
    else begin
      Gc.compact ();
      let before = calib_ns () in
      let t0 = Probe.now () in
      let x = build () in
      let dt = fi (Probe.now () - t0) *. 1e-9 in
      let scaled = dt /. slowness ~before ~after:(calib_ns ()) in
      go (k - 1) ((dt, scaled) :: times) (Some x)
    end
  in
  let x, times = go setup_reps [] None in
  let raw = median (List.map fst times) and s = median (List.map snd times) in
  note "  setup            median of %d = %.3f s (raw %.3f s)" setup_reps s raw;
  (x, s)

let chameleon ~cache () =
  (Stores.chameleon
     ~f:(fun cfg -> { cfg with Chameleondb.Config.cache_bytes = cache })
     Stores.default)
    .Stores.make ()

(* -- phase snapshots ----------------------------------------------------- *)

type snap = {
  s_counts : Probe.counts;
  s_stats : Stats.t;
  s_ctr : (string * float) list;
  s_attr : Attr.snapshot;
  s_timers : Probe.timers;
}

let sum_stats l =
  let s = Stats.create () in
  List.iter
    (fun (d : Stats.t) ->
      s.user_write_bytes <- s.user_write_bytes +. d.user_write_bytes;
      s.media_write_bytes <- s.media_write_bytes +. d.media_write_bytes;
      s.media_read_bytes <- s.media_read_bytes +. d.media_read_bytes;
      s.rmw_read_bytes <- s.rmw_read_bytes +. d.rmw_read_bytes;
      s.read_ops <- s.read_ops + d.read_ops;
      s.write_ops <- s.write_ops + d.write_ops;
      s.persist_ops <- s.persist_ops + d.persist_ops;
      s.live_bytes <- s.live_bytes +. d.live_bytes;
      s.write_wait_ns <- s.write_wait_ns +. d.write_wait_ns;
      s.read_wait_ns <- s.read_wait_ns +. d.read_wait_ns)
    l;
  s

let snapshot counts devs =
  { s_counts = Probe.sum_counts counts;
    s_stats = sum_stats (List.map (fun d -> Stats.copy (Device.stats d)) devs);
    s_ctr = Obs.Counters.snapshot ();
    s_attr = Attr.snapshot ();
    s_timers = Probe.snapshot_timers () }

let delta ~after ~before =
  { s_counts = Probe.diff_counts ~after:after.s_counts ~before:before.s_counts;
    s_stats = Stats.diff ~after:after.s_stats ~before:before.s_stats;
    s_ctr = Obs.Counters.diff_snapshots ~after:after.s_ctr ~before:before.s_ctr;
    s_attr = Attr.diff ~after:after.s_attr ~before:before.s_attr;
    s_timers = Probe.diff_timers ~after:after.s_timers ~before:before.s_timers }

(* -- outcome ------------------------------------------------------------- *)

type outcome = {
  e2e : (string * float) list;
  layer : (string * float) list;
  attempted : int;
  failed : int;
}

(* Gate bookkeeping: every check adds to [attempted]; a failing one adds to
   [failed] and is reported. *)
type gates = { mutable attempted : int; mutable failed : int }

let gates () = { attempted = 0; failed = 0 }

let gate g ~n ~bad what =
  g.attempted <- g.attempted + n;
  g.failed <- g.failed + bad;
  note "  gate %-40s %s" what
    (if bad = 0 then Printf.sprintf "ok (%d checked)" n
     else Printf.sprintf "FAILED (%d of %d)" bad n)

(* Metrics every workload derives the same way from its measured phase. *)
(* The modelled numbers: reads are gets, or scans where [scan] (their
   tail is then p90 — a scan run holds too few samples for p99).  The
   write side sits with the core layer, because store-ycsb-e makes too
   few writes to measure it end to end. *)
let modelled ~sim_mops ?(scan = false) ~read_h ~put_h ~write_amp ~restart_us
    () =
  let read_name, tail_p = if scan then ("scan", 90.0) else ("get", 99.0) in
  ( [ ("sim_mops", sim_mops); ("read_p50_ns", pct read_h 50.0);
      ("read_tail_ns", tail read_h tail_p read_name) ],
    [ ("core.put_p50_ns", pct put_h 50.0);
      ("core.put_p99_ns", tail put_h 99.0 "put");
      ("core.write_amp", write_amp); ("core.restart_us", restart_us) ] )

let outcome a ~setup_s (e2e, layer) ~layers ~(gates : gates) =
  let g = Gc.quick_stat () in
  note "  host             %.4g kop/s (raw %.4g)" (host_kops a) (raw_kops a);
  note "  kernel           median %.3f ms over the run, %.3f ms at start-up"
    (median !calib_times *. 1e-6) (calib_idle_ns *. 1e-6);
  { e2e =
      [ ("setup_s", setup_s); ("host_kops", host_kops a);
        ("alloc_words_per_op", ratio a.alloc (fi a.ops));
        ("peak_heap_mb",
         fi g.Gc.top_heap_words *. fi (Sys.word_size / 8) /. 1048576.0) ]
      @ e2e;
    layer = layer @ layers;
    attempted = a.ops + gates.attempted;
    failed = gates.failed }

let common_layer ctx a (d : snap) =
  let c = d.s_counts and st = d.s_stats and t = d.s_timers in
  let gets = fi c.Probe.gets and puts = fi c.Probe.puts in
  let scans = fi c.Probe.scans and ops = fi a.ops in
  let stage i = fi c.Probe.by_stage.(i) in
  let per_class stage =
    let n =
      match Attr.op_of stage with `Get -> gets | `Put -> puts | _ -> scans
    in
    (stage_metric stage, ratio (Attr.stage_ns d.s_attr stage) n)
  in
  let cache_hits = ctr d.s_ctr "cache.hits" in
  [ ("harness.traced_host_kops", if ctx.trace then host_kops a else 0.0);
    ("harness.raw_host_kops", raw_kops a);
    ("harness.calib_ms", median !calib_times *. 1e-6);
    ("workload.gen_s", fi a.gen_ns *. 1e-9);
    ("core.read.busy_s", fi t.Probe.t_read.busy_ns *. 1e-9);
    ("core.write.busy_s", fi t.Probe.t_write.busy_ns *. 1e-9);
    ("core.scan.busy_s", fi t.Probe.t_scan.busy_ns *. 1e-9);
    ("core.read.wall_p50_ns", Probe.percentile t.Probe.t_read 50.0);
    ("core.read.wall_p99_ns", Probe.percentile t.Probe.t_read 99.0);
    ("core.write.wall_p99_ns", Probe.percentile t.Probe.t_write 99.0);
    ("core.scan.wall_p50_ns", Probe.percentile t.Probe.t_scan 50.0);
    ("core.flushes", ctr d.s_ctr "shard.flushes");
    ("core.upper_compactions", ctr d.s_ctr "shard.upper_compactions");
    ("core.last_compactions", ctr d.s_ctr "shard.last_compactions");
    ("core.stall_ns_per_put", ratio (ctr d.s_ctr "put.stall_ns") puts);
    ("core.get.memtable_frac",
     ratio (stage (Probe.stage_index Si.Memtable)) gets);
    ("core.get.abi_frac", ratio (stage (Probe.stage_index Si.Abi)) gets);
    ("core.get.last_frac", ratio (stage (Probe.stage_index Si.Last)) gets) ]
  @ List.map per_class (get_stages @ put_stages @ [ Attr.Scan_stream ])
  @ [ ("kv.vlog.reads_per_get", ratio (ctr d.s_ctr "vlog.reads") gets);
      ("kv.vlog.append_bytes_per_put",
       ratio (ctr d.s_ctr "vlog.append_bytes") puts);
      ("kv.compaction_bytes_per_put",
       ratio (ctr d.s_ctr "compaction.bytes") puts);
      ("pmem.read_ops_per_get", ratio (fi st.Stats.read_ops) gets);
      ("pmem.media_write_bytes_per_put", ratio st.Stats.media_write_bytes puts);
      ("pmem.persist_ops_per_put", ratio (fi st.Stats.persist_ops) puts);
      ("pmem.read_wait_ns_per_op", ratio st.Stats.read_wait_ns ops);
      ("pmem.write_wait_ns_per_op", ratio st.Stats.write_wait_ns ops);
      ("cache.hit_frac",
       ratio cache_hits (cache_hits +. ctr d.s_ctr "cache.misses"));
      ("cache.evictions", ctr d.s_ctr "cache.evictions");
      ("cache.invalidations", ctr d.s_ctr "cache.invalidations");
      ("gc.minor_words_per_op", ratio a.minor ops);
      ("gc.promoted_words_per_op", ratio a.promoted ops);
      ("gc.major_collections", fi a.majors) ]

(* Wall seconds a workload loop spent outside store calls during the
   measured windows (meaningful in traced runs, which time the calls). *)
let self_s a d =
  let t = d.s_timers in
  let busy =
    t.Probe.t_read.busy_ns + t.Probe.t_write.busy_ns + t.Probe.t_scan.busy_ns
  in
  fi (a.wall_ns - busy) *. 1e-9

(* Traced runs turn on the per-stage attribution for the measured phase.
   It never moves a simulated clock. *)
let start_phase ctx = if ctx.trace then Attr.enable ()

let end_phase ~before counts devs =
  let d = delta ~after:(snapshot counts devs) ~before in
  Attr.disable ();
  d

(* Crash the store, recover it on a fresh clock, and return the modelled
   restart time (us) and the clock. *)
let crash_recover store ~at =
  Si.crash store;
  let clock = Clock.create ~at () in
  Si.recover store clock;
  ((Clock.now clock -. at) /. 1000.0, clock)

(* Every loaded key must read back after recovery. *)
let readback g store clock ~n =
  let missing = ref 0 in
  for i = 0 to n - 1 do
    match (Si.read store clock (Keyspace.key_of_index i)).Si.loc with
    | Some _ -> ()
    | None -> incr missing
  done;
  gate g ~n ~bad:!missing "every loaded key reads back after recover";
  match Si.check_invariants store with
  | Ok () -> gate g ~n:1 ~bad:0 "check_invariants after recover"
  | Error e ->
    note "  invariant violation: %s" e;
    gate g ~n:1 ~bad:1 "check_invariants after recover"

(* -- scan oracle (store-ycsb-e) ------------------------------------------ *)

module Kset = Set.Make (struct
  type t = Types.key

  let compare = Types.key_compare
end)

type oracle = {
  base : (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable extra : Kset.t;
  mutable armed : bool;
}

let oracle ~n =
  let a = Array.init n Keyspace.key_of_index in
  Array.sort Types.key_compare a;
  { base = Bigarray.Array1.of_array Bigarray.int64 Bigarray.c_layout a;
    extra = Kset.empty;
    armed = false }

(* First index of [base] whose key is >= [start]. *)
let lower_bound o start =
  let lo = ref 0 and hi = ref (Bigarray.Array1.dim o.base) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Types.key_compare (Bigarray.Array1.get o.base mid) start < 0 then
      lo := mid + 1
    else hi := mid
  done;
  !lo

(* The scan must return exactly the next [limit] live keys >= [start], in
   order: the merge of the preloaded keys and the inserted ones. *)
let check_scan o ~start ~limit got =
  let n = Bigarray.Array1.dim o.base in
  let rec expect i extra k acc =
    if k = 0 then List.rev acc
    else
      let b = if i < n then Some (Bigarray.Array1.get o.base i) else None in
      match (b, Kset.min_elt_opt extra) with
      | None, None -> List.rev acc
      | Some x, Some y when Types.key_compare y x < 0 ->
        expect i (Kset.remove y extra) (k - 1) (y :: acc)
      | Some x, _ -> expect (i + 1) extra (k - 1) (x :: acc)
      | None, Some y -> expect i (Kset.remove y extra) (k - 1) (y :: acc)
  in
  let extra = Kset.filter (fun k -> Types.key_compare k start >= 0) o.extra in
  let want = expect (lower_bound o start) extra limit [] in
  List.length got = List.length want
  && List.for_all2
       (fun (k, loc) w -> Int64.equal k w && Types.is_live loc)
       got want

(* -- closed-loop store workloads ---------------------------------------- *)

let store_setup ctx ~cache ~hooks =
  let n = load_keys in
  setup_repeated (fun () ->
      let c = Probe.counts () in
      let store = Probe.wrap ~trace:ctx.trace ~c ~hooks (chameleon ~cache ()) in
      let load =
        Stores.load_unique ~store ~threads ~start_at:0.0 ~n ~vlen
      in
      (store, c, Stores.settled_cursor ~store load))

let ycsb ctx ~mix =
  let n = load_keys in
  let orc = if mix = Ycsb.E then Some (oracle ~n) else None in
  let hooks =
    match orc with
    | None -> Probe.no_hooks
    | Some o ->
      { Probe.on_write =
          (fun k -> if o.armed then o.extra <- Kset.add k o.extra);
        check_scan =
          (fun ~start ~limit got ->
            (not o.armed) || check_scan o ~start ~limit got)
      }
  in
  let (store, c, t0), setup_s = store_setup ctx ~cache:0 ~hooks in
  let dev = Si.device store in
  let total =
    ops_for ctx (if mix = Ycsb.E then rate_ycsb_e else rate_ycsb_a)
  in
  let gen = Ycsb.create ~seed:ctx.seed ~mix ~loaded:n () in
  let a = acc () in
  let get_h = ref (H.create ()) and put_h = ref (H.create ()) in
  let scan_h = ref (H.create ()) in
  let cursor = ref t0 in
  start_phase ctx;
  Option.iter (fun o -> o.armed <- true) orc;
  let before = snapshot [ c ] [ dev ] in
  for s = 0 to segments - 1 do
    let len = (total * (s + 1) / segments) - (total * s / segments) in
    let ops = generate a (fun () -> Array.init len (fun _ -> Ycsb.next gen)) in
    let i = ref 0 in
    let next () =
      let op = ops.(!i) in
      incr i;
      op
    in
    let r =
      window a (fun () ->
          ( Runner.run_ops ~seed:ctx.seed ~store ~threads ~start_at:!cursor
              ~ops:len ~next (),
            len ))
    in
    cursor := r.Runner.end_ns;
    get_h := H.merge !get_h r.Runner.get_latency;
    put_h := H.merge !put_h r.Runner.put_latency;
    scan_h := H.merge !scan_h r.Runner.scan_latency
  done;
  let d = end_phase ~before [ c ] [ dev ] in
  Option.iter (fun o -> o.armed <- false) orc;
  let settled = Float.max !cursor (Device.quiesce_at dev) in
  let sim_mops = fi a.ops /. (settled -. t0) *. 1000.0 in
  let restart_us, clock = crash_recover store ~at:settled in
  let recover_timer = Probe.timers.Probe.t_recover in
  let g = gates () in
  gate g ~n:d.s_counts.Probe.gets ~bad:d.s_counts.Probe.misses
    "every get of a loaded key hits";
  if mix = Ycsb.E then
    gate g ~n:d.s_counts.Probe.scans ~bad:d.s_counts.Probe.bad_scans
      "every scan equals the oracle's next live keys";
  readback g store clock ~n;
  outcome a ~setup_s ~gates:g
    (modelled ~sim_mops ~scan:(mix = Ycsb.E)
       ~read_h:(if mix = Ycsb.E then !scan_h else !get_h)
       ~put_h:!put_h
       ~write_amp:
         (ratio d.s_stats.Stats.media_write_bytes
            (fi d.s_counts.Probe.user_bytes))
       ~restart_us ())
    ~layers:
      (common_layer ctx a d
      @ [ ("harness.runner.self_s", self_s a d);
          ("core.recover.wall_s", fi recover_timer.Probe.busy_ns *. 1e-9) ])

(* -- open-loop phase: nominal rate, then the SLO rate search ------------- *)

type step = { st_end : float; st_ops : int; st_get : H.t; st_put : H.t }

(* Run [total] requests: three quarters at [nominal] in [segments]
   windows, the rest split evenly over [probes] rates that bisect
   [nominal, ceiling].  [exec] serves one pre-built arrival schedule from
   [start_at].  A rate passes when its get p99 is within [slo_ns] and no
   backlog builds up: every window's queue drains within a tenth of the
   window's length after its last arrival.  Returns the nominal get/put
   histograms, the SLO throughput (achieved Mop/s at the highest rate
   that passed; 0 when the nominal rate fails) and the end time. *)
let open_loop ctx a ~t0 ~total ~nominal ~ceiling ~slo_ns ~reqgen ~exec =
  let cursor = ref t0 in
  (* one window: (step, simulated span, backlog share) *)
  let serve ~rate ~n ~seed =
    let duration_ns = fi n /. rate *. 1000.0 in
    let arrivals =
      generate a (fun () ->
          Loadgen.open_loop ~seed ~conns:threads
            ~process:(Loadgen.Poisson { rate_mops = rate })
            ~reqgen ~duration_ns ~start_at:!cursor ())
    in
    let start = !cursor in
    let st =
      window a (fun () ->
          let st = exec ~arrivals ~start_at:start in
          (st, st.st_ops))
    in
    cursor := st.st_end;
    let last = arrivals.(Array.length arrivals - 1).Server.at in
    (st, st.st_end -. start, (st.st_end -. last) /. duration_ns)
  in
  let rate_result rate steps =
    let get_h = List.fold_left (fun h (st, _, _) -> H.merge h st.st_get)
        (H.create ()) steps
    in
    let put_h = List.fold_left (fun h (st, _, _) -> H.merge h st.st_put)
        (H.create ()) steps
    in
    let ops = List.fold_left (fun n (st, _, _) -> n + st.st_ops) 0 steps in
    let span = List.fold_left (fun t (_, ns, _) -> t +. ns) 0.0 steps in
    let backlog = List.fold_left (fun b (_, _, x) -> Float.max b x) 0.0 steps in
    let p99 = pct get_h 99.0 in
    let ok = p99 <= slo_ns && backlog <= 0.1 in
    note "  rate %6.3f Mop/s  get p99 %8.0f ns  drain %5.1f %% of window  %s"
      rate p99 (100.0 *. backlog) (if ok then "pass" else "fail");
    (get_h, put_h, ok, fi ops /. span *. 1000.0)
  in
  let nominal_n = int_of_float (fi total *. (1.0 -. search_share)) in
  let nominal_steps =
    List.init segments (fun s ->
        let n = (nominal_n * (s + 1) / segments) - (nominal_n * s / segments) in
        serve ~rate:nominal ~n ~seed:((ctx.seed * 1000) + s))
  in
  let get_h, put_h, nominal_ok, nominal_mops =
    rate_result nominal nominal_steps
  in
  let probe_n = (total - nominal_n) / probes in
  let rec search i lo hi best =
    if i = probes then best
    else
      let rate = (lo +. hi) /. 2.0 in
      let seed = (ctx.seed * 1000) + segments + i in
      match rate_result rate [ serve ~rate ~n:probe_n ~seed ] with
      | _, _, true, mops -> search (i + 1) rate hi mops
      | _, _, false, _ -> search (i + 1) lo rate best
  in
  let best =
    if nominal_ok then search 0 nominal ceiling nominal_mops else 0.0
  in
  (get_h, put_h, best, !cursor)

(* -- serve-b-cached ------------------------------------------------------- *)

let serve ctx =
  let n = load_keys in
  let (store, c, t0), setup_s =
    store_setup ctx ~cache:cache_bytes ~hooks:Probe.no_hooks
  in
  let dev = Si.device store in
  let zipf = Workload.Zipf.create ~n () in
  let payload = Bytes.make vlen 'v' in
  let reqgen rng =
    let ix = Workload.Zipf.scrambled zipf rng ~universe:n in
    let key = Keyspace.key_of_index ix in
    if Workload.Rng.int rng 100 < 95 then Proto.Get key
    else Proto.Put (key, payload)
  in
  let a = acc () in
  let submitted = ref 0 and executed = ref 0 and shed = ref 0 in
  let corrupt = ref 0 and max_depth = ref 0 in
  let qwait = ref (H.create ()) in
  let exec ~arrivals ~start_at =
    let s = Server.run ~sched:Server.Fifo ~arrivals ~store ~workers:threads
        ~start_at ()
    in
    submitted := !submitted + s.Server.submitted;
    executed := !executed + s.Server.executed;
    shed := !shed + s.Server.shed;
    corrupt := !corrupt + s.Server.corrupt;
    max_depth := max !max_depth s.Server.max_depth;
    qwait := H.merge !qwait s.Server.queue_wait;
    { st_end = s.Server.end_ns; st_ops = s.Server.ops_executed;
      st_get = s.Server.get_service; st_put = s.Server.put_service }
  in
  start_phase ctx;
  let before = snapshot [ c ] [ dev ] in
  let get_h, put_h, sim_mops, cursor =
    open_loop ctx a ~t0 ~total:(ops_for ctx rate_serve) ~nominal:serve_nominal
      ~ceiling:serve_ceiling ~slo_ns:serve_slo_ns ~reqgen ~exec
  in
  let d = end_phase ~before [ c ] [ dev ] in
  let settled = Float.max cursor (Device.quiesce_at dev) in
  let restart_us, clock = crash_recover store ~at:settled in
  let g = gates () in
  gate g ~n:d.s_counts.Probe.gets ~bad:d.s_counts.Probe.misses
    "every get of a loaded key hits";
  gate g ~n:!submitted ~bad:(abs (!submitted - !executed - !shed))
    "executed + shed = submitted";
  gate g ~n:!submitted ~bad:(!shed + !corrupt) "no shed or corrupt request";
  readback g store clock ~n;
  let svc stage = ratio (Attr.stage_ns d.s_attr stage) (fi !executed) in
  let puts = fi d.s_counts.Probe.puts in
  outcome a ~setup_s ~gates:g
    (modelled ~sim_mops ~read_h:get_h ~put_h
       ~write_amp:
         (ratio d.s_stats.Stats.media_write_bytes
            (fi d.s_counts.Probe.user_bytes))
       ~restart_us ())
    ~layers:
      (common_layer ctx a d
      @ [ ("core.recover.wall_s",
           fi Probe.timers.Probe.t_recover.Probe.busy_ns *. 1e-9);
          ("service.server.self_s", self_s a d);
          ("service.stage.decode_ns", svc Attr.Svc_decode);
          ("service.stage.queue_ns", svc Attr.Svc_queue);
          ("service.stage.execute_ns", svc Attr.Svc_execute);
          ("service.stage.encode_ns", svc Attr.Svc_encode);
          ("service.queue_wait_p99_ns", pct !qwait 99.0);
          ("service.max_depth", fi !max_depth);
          ("service.grouped_write_frac",
           ratio (ctr d.s_ctr "service.grouped_writes") puts);
          ("service.group_commits", ctr d.s_ctr "service.group_commits");
          ("service.shed", fi !shed) ])

(* -- cluster-r2 ------------------------------------------------------------ *)

module Router = Cluster.Router
module Run = Cluster.Run
module Node = Cluster.Node

let cluster ctx =
  let n = cluster_keys in
  let build () =
    let counts = List.init cluster_nodes (fun _ -> Probe.counts ()) in
    let nodes =
      Array.of_list
        (List.mapi
           (fun i c ->
             Node.create ~id:i
               (Probe.wrap ~trace:ctx.trace ~c
                  ((Stores.chameleon ~name:(Printf.sprintf "node%d" i)
                      Stores.default).Stores.make ())))
           counts)
    in
    let ring =
      Cluster.Ring.create ~vshards:64 ~replicas:2
        ~nodes:(List.init cluster_nodes Fun.id) ()
    in
    let router =
      Router.create ~policy:Router.default_policy ~seed:ctx.seed
        ~write_quorum:2 ~read_quorum:1 ring nodes
    in
    let orc = Run.oracle () in
    let t0 = Run.preload router orc ~n_keys:n ~vlen in
    (router, orc, counts, t0)
  in
  let (router, orc, counts, t0), setup_s = setup_repeated build in
  let nodes = Router.nodes router in
  let devs =
    Array.to_list (Array.map (fun nd -> Si.device (Node.store nd)) nodes)
  in
  let a = acc () in
  let errs = ref 0 and put_reqs = ref 0 in
  let exec ~arrivals ~start_at =
    let r = Run.run ~start_at ~arrivals ~events:[] router orc in
    errs := !errs + r.Run.r_errs;
    put_reqs := !put_reqs + H.count r.Run.r_put_h;
    { st_end = r.Run.r_end_ns; st_ops = r.Run.r_ops; st_get = r.Run.r_get_h;
      st_put = r.Run.r_put_h }
  in
  let router_counts () =
    List.map
      (fun f -> f router)
      Router.
        [ redirects; quorum_failures; unavailable; misrouted; replica_applies ]
  in
  start_phase ctx;
  let per_node0 = List.map Probe.copy_counts counts in
  let r0 = router_counts () in
  let before = snapshot counts devs in
  let get_h, put_h, sim_mops, cursor =
    open_loop ctx a ~t0 ~total:(ops_for ctx rate_cluster)
      ~nominal:cluster_nominal ~ceiling:cluster_ceiling ~slo_ns:cluster_slo_ns
      ~reqgen:(Loadgen.mixed_reqgen ~n_keys:n ~get_frac:0.9 ~vlen) ~exec
  in
  let d = end_phase ~before counts devs in
  let redirects, quorum_failures, unavailable, misrouted, applies =
    match List.map2 ( - ) (router_counts ()) r0 with
    | [ a; b; c; d; e ] -> (fi a, fi b, fi c, fi d, fi e)
    | _ -> assert false
  in
  let node_ops =
    List.map2
      (fun c c0 ->
        let x = Probe.diff_counts ~after:c ~before:c0 in
        fi (x.Probe.gets + x.Probe.puts + x.Probe.scans))
      counts per_node0
  in
  let g = gates () in
  gate g ~n:d.s_counts.Probe.gets ~bad:d.s_counts.Probe.misses
    "every get of a loaded key hits";
  gate g ~n:a.ops ~bad:!errs "no Err reply";
  let audit_t0 = Probe.now () in
  let checked, mms = Run.divergence router orc in
  let scan_checked, scan_mms = Run.scan_divergence router orc in
  let audit_s = fi (Probe.now () - audit_t0) *. 1e-9 in
  gate g ~n:checked ~bad:(List.length mms) "replica divergence audit clean";
  gate g ~n:scan_checked ~bad:(List.length scan_mms)
    "scan divergence audit clean";
  gate g ~n:1 ~bad:(Router.misrouted router) "misrouted = 0";
  let settled =
    List.fold_left (fun t dv -> Float.max t (Device.quiesce_at dv)) cursor devs
  in
  let victim = nodes.(0) in
  Node.kill ~seed:ctx.seed victim;
  let restart_ns = Node.rejoin victim (Clock.create ~at:settled ()) in
  Array.iter
    (fun nd ->
      let what = Printf.sprintf "node%d invariants" (Node.id nd) in
      match Si.check_invariants (Node.store nd) with
      | Ok () -> gate g ~n:1 ~bad:0 what
      | Error e ->
        note "  invariant violation: %s" e;
        gate g ~n:1 ~bad:1 what)
    nodes;
  let mean_ops = List.fold_left ( +. ) 0.0 node_ops /. fi cluster_nodes in
  let max_ops = List.fold_left Float.max 0.0 node_ops in
  outcome a ~setup_s ~gates:g
    (modelled ~sim_mops ~read_h:get_h ~put_h
       ~write_amp:
         (ratio d.s_stats.Stats.media_write_bytes
            (fi (!put_reqs * (Probe.key_bytes + vlen))))
       ~restart_us:(restart_ns /. 1000.0) ())
    ~layers:
      (common_layer ctx a d
      @ [ ("core.recover.wall_s",
           fi Probe.timers.Probe.t_recover.Probe.busy_ns *. 1e-9);
          ("cluster.run.self_s", self_s a d);
          ("cluster.replica_applies_per_write", ratio applies (fi !put_reqs));
          ("cluster.node_ops_max_over_mean", ratio max_ops mean_ops);
          ("cluster.redirects", redirects);
          ("cluster.quorum_failures", quorum_failures);
          ("cluster.unavailable", unavailable);
          ("cluster.misrouted", misrouted);
          ("cluster.audit_s", audit_s) ])

(* -- entry point ---------------------------------------------------------- *)

let workloads =
  [ ("store-ycsb-a", fun ctx -> ycsb ctx ~mix:Ycsb.A);
    ("serve-b-cached", serve);
    ("cluster-r2", cluster);
    ("store-ycsb-e", fun ctx -> ycsb ctx ~mix:Ycsb.E) ]

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let emit o ~catalogue ~correct =
  let metric (name, unit) =
    let v =
      match List.assoc_opt name o.layer with
      | Some v -> v
      | None -> Option.value ~default:0.0 (List.assoc_opt name o.e2e)
    in
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \
     \"metrics\": {%s}}\n%!"
    correct o.attempted o.failed
    (String.concat ", " (List.map metric catalogue))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 8 in
  let trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds,
       "S measured wall seconds (sizes the run)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
      prerr_endline
        ("unknown workload; one of: "
        ^ String.concat ", " (List.map fst workloads));
      exit 2
  in
  let ctx = { seed = !seed; seconds = max 1 !seconds; trace = !trace <> 0 } in
  note "%s seed %d seconds %d trace %b" !workload ctx.seed ctx.seconds
    ctx.trace;
  let o = run ctx in
  (* every end-to-end metric means something on every workload: one a
     workload did not compute is a bug, not a silent zero *)
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name o.e2e) then
        failwith ("end-to-end metric not computed: " ^ name))
    end_to_end;
  let correct = o.failed = 0 in
  emit o ~catalogue:(end_to_end @ per_layer) ~correct;
  if not correct then exit 1
