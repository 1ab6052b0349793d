module Clock = Pmem_sim.Clock
module Device = Pmem_sim.Device
module Cost_model = Pmem_sim.Cost_model
module Stats = Pmem_sim.Stats
module Types = Kv_common.Types
module Store_intf = Kv_common.Store_intf
module Table = Metrics.Table_fmt
module Histogram = Metrics.Histogram
module Config = Chameleondb.Config

type outcome = {
  metrics : (string * float) list;
  gates : (string * bool) list;
}

type record = {
  id : string;
  seed : int option;
  quick : bool;
  wall_s : float;
  outcome : outcome;
}

type exp = {
  id : string;
  title : string;
  run : Stores.scale -> seed:int -> outcome;
}

let pr fmt = Format.printf fmt

(* Accumulates an experiment's metrics in emission order. *)
let recorder () =
  let acc = ref [] in
  ((fun name v -> acc := (name, v) :: !acc), fun () -> List.rev !acc)

let rec firstn n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: firstn (n - 1) tl

(* ------------------------------------------------------------------ *)
(* Figure 1: raw random-write throughput vs access size and threads.   *)
(* ------------------------------------------------------------------ *)

let fig1 _scale =
  let sizes = [ 8; 16; 32; 64; 128; 256; 512; 1024; 4096; 16384; 131072 ] in
  let threads = [ 1; 2; 4; 8; 16 ] in
  let tbl =
    Table.create ~title:"Fig 1: random ntstore write throughput (user GB/s)"
      ~columns:
        (("size", Table.Left)
        :: List.map (fun t -> (Printf.sprintf "%dthr" t, Table.Right)) threads)
  in
  List.iter
    (fun size ->
      let row =
        List.map
          (fun nthreads ->
            let dev = Device.create Cost_model.optane in
            Device.set_active_threads dev nthreads;
            let rng = Workload.Rng.create ~seed:(size + nthreads) in
            let clocks =
              Array.init nthreads (fun _ -> Clock.create ())
            in
            let ops_per_thread = max 400 (1 lsl 22 / size / nthreads) in
            let remaining = Array.make nthreads ops_per_thread in
            let total = ref 0 in
            let alive = ref nthreads in
            while !alive > 0 do
              (* min-clock thread issues one random aligned write *)
              let best = ref (-1) and best_t = ref infinity in
              Array.iteri
                (fun i c ->
                  if remaining.(i) > 0 && Clock.now c < !best_t then begin
                    best := i;
                    best_t := Clock.now c
                  end)
                clocks;
              let i = !best in
              let off = Workload.Rng.int rng 1_000_000 * 256 in
              Device.charge_write_at dev clocks.(i) ~off ~len:size;
              remaining.(i) <- remaining.(i) - 1;
              if remaining.(i) = 0 then decr alive;
              incr total
            done;
            let wall =
              Array.fold_left (fun a c -> Float.max a (Clock.now c)) 0.0 clocks
            in
            let user_bytes = float_of_int (!total * size) in
            Table.cell_f (user_bytes /. wall))
          threads
      in
      Table.add_row tbl (Table.cell_bytes (float_of_int size) :: row))
    sizes;
  Table.print tbl;
  pr "Shape check: throughput roughly doubles 64B->128B->256B and is flat@.";
  pr "above 256B; high thread counts degrade slightly (iMC contention).@.@."

(* ------------------------------------------------------------------ *)
(* Figure 2: per-level read latency of a 7-level LSM on three devices. *)
(* ------------------------------------------------------------------ *)

let fig2 scale =
  let profiles =
    [ ("SATA-SSD", Cost_model.sata_ssd);
      ("PCIe-SSD", Cost_model.nvme_ssd);
      ("Optane", Cost_model.optane) ]
  in
  let tbl =
    Table.create
      ~title:
        "Fig 2: get latency by tables probed, 7-level Pmem-LSM-F (filter vs \
         read)"
      ~columns:
        [ ("device", Table.Left); ("depth", Table.Right);
          ("gets", Table.Right); ("filter", Table.Right);
          ("table+log read", Table.Right); ("filter share", Table.Right) ]
  in
  List.iter
    (fun (name, profile) ->
      let dev = Device.create profile in
      let cfg =
        { (Stores.chameleon_cfg scale) with
          Config.shards = 8;
          memtable_slots = 128;
          levels = 7 }
      in
      let lsm = Baselines.Pmem_lsm.create ~cfg ~dev Baselines.Pmem_lsm.F in
      let store = Baselines.Pmem_lsm.store lsm in
      let n = scale.Stores.load_keys / 4 in
      let r =
        Stores.load_unique ~store ~threads:4 ~start_at:0.0 ~n
          ~vlen:scale.Stores.vlen
      in
      (* measure gets grouped by how many tables were consulted *)
      let by_depth = Hashtbl.create 16 in
      let clock =
        Clock.create ~at:(Stores.settled_cursor ~store r) ()
      in
      let rng = Workload.Rng.create ~seed:2 in
      for _ = 1 to scale.Stores.sweep_ops / 8 do
        let key =
          Workload.Keyspace.key_of_index (Workload.Rng.int rng n)
        in
        let t0 = Clock.now clock in
        let _, depth = Baselines.Pmem_lsm.get_with_level lsm clock key in
        let lat = Clock.now clock -. t0 in
        let sum, cnt =
          match Hashtbl.find_opt by_depth depth with
          | Some (s, c) -> (s, c)
          | None -> (0.0, 0)
        in
        Hashtbl.replace by_depth depth (sum +. lat, cnt + 1)
      done;
      let depths =
        List.sort compare
          (Hashtbl.fold (fun d _ acc -> d :: acc) by_depth [])
      in
      List.iter
        (fun d ->
          let sum, cnt = Hashtbl.find by_depth d in
          let avg = sum /. float_of_int cnt in
          let filter = float_of_int d *. Cost_model.bloom_check_ns in
          let read = Float.max 0.0 (avg -. filter) in
          Table.add_row tbl
            [ name; string_of_int d; string_of_int cnt; Table.cell_ns filter;
              Table.cell_ns read;
              Printf.sprintf "%.0f%%" (100.0 *. filter /. avg) ])
        depths;
      Table.add_rule tbl)
    profiles;
  Table.print tbl;
  pr "Shape check: the filter share is noise on SSDs but grows to rival the@.";
  pr "table read itself on Optane at deeper levels (Challenge 2).@.@."

(* ------------------------------------------------------------------ *)
(* Overall comparison machinery shared by Table 4 and Figure 3.        *)
(* ------------------------------------------------------------------ *)

type overall = {
  o_name : string;
  put_mops : float;
  get_mops : float;
  med_get_ns : float;
  wa : float;
  dram : float;
  restart_ns : float;
}

let collect_overall scale =
  let tmax = List.fold_left max 1 scale.Stores.threads in
  List.map
    (fun spec ->
      let store = spec.Stores.make () in
      let before = Stats.copy (Device.stats (Store_intf.device store)) in
      let load =
        Stores.load_unique ~store ~threads:tmax ~start_at:0.0
          ~n:scale.Stores.load_keys ~vlen:scale.Stores.vlen
      in
      let after = Stats.copy (Device.stats (Store_intf.device store)) in
      let delta = Stats.diff ~after ~before in
      (* snapshot sustained put throughput now: quiesce_at moves with later
         phases *)
      let put_mops = Stores.sustained_mops ~store load in
      let cursor = Stores.settled_cursor ~store load in
      let gets =
        Runner.run_ops ~store ~threads:tmax ~start_at:cursor
          ~ops:scale.Stores.sweep_ops
          ~next:
            (Stores.uniform_get_gen ~seed:11
               ~universe:scale.Stores.load_keys)
          ()
      in
      let dram = Store_intf.dram_footprint store in
      (* crash from a dirty state: a tail of un-checkpointed puts, as after
         the paper's billion-key load *)
      let extra = scale.Stores.sweep_ops / 8 in
      let i = ref scale.Stores.load_keys in
      let dirty =
        Runner.run_ops ~store ~threads:tmax
          ~start_at:(Stores.settled_cursor ~store gets)
          ~ops:extra
          ~next:(fun () ->
            incr i;
            Types.Put (Workload.Keyspace.key_of_index !i, scale.Stores.vlen))
          ()
      in
      let cursor = Stores.settled_cursor ~store dirty in
      Store_intf.crash store;
      let rclock = Clock.create ~at:cursor () in
      Store_intf.recover store rclock;
      let restart_ns = Clock.now rclock -. cursor in
      (* the paper's write amplification: media bytes per logical KV byte *)
      let logical_bytes =
        float_of_int
          (scale.Stores.load_keys
          * Kv_common.Vlog.entry_bytes ~vlen:scale.Stores.vlen)
      in
      { o_name = spec.Stores.name;
        put_mops;
        get_mops = Runner.throughput_mops gets;
        med_get_ns = Histogram.median gets.Runner.get_latency;
        wa = delta.Stats.media_write_bytes /. logical_bytes;
        dram;
        restart_ns })
    (Stores.all scale)

let tab4 scale =
  let rows = collect_overall scale in
  let tbl =
    Table.create ~title:"Table 4: overall comparison"
      ~columns:
        (("metric", Table.Left)
        :: List.map (fun r -> (r.o_name, Table.Right)) rows)
  in
  let cells f = List.map f rows in
  Table.add_row tbl
    ("Put Thr (Mops/s)" :: cells (fun r -> Table.cell_f r.put_mops));
  Table.add_row tbl
    ("Get Thr (Mops/s)" :: cells (fun r -> Table.cell_f r.get_mops));
  Table.add_row tbl
    ("DRAM Footprint" :: cells (fun r -> Table.cell_bytes r.dram));
  Table.add_row tbl
    ("Restart Time" :: cells (fun r -> Table.cell_ns r.restart_ns));
  Table.add_row tbl
    ("Write Amplification" :: cells (fun r -> Table.cell_f r.wa));
  Table.add_row tbl
    ("Median Get" :: cells (fun r -> Table.cell_ns r.med_get_ns));
  Table.print tbl;
  pr
    "Shape check: every store except ChameleonDB has at least one bad cell@.";
  pr "(Dram-Hash: footprint+restart, Pmem-Hash: puts, LSMs: gets).@.@."

let fig3 scale =
  let rows = collect_overall scale in
  let worst f = List.fold_left (fun a r -> Float.max a (f r)) 1e-9 rows in
  let w_wa = worst (fun r -> r.wa)
  and w_lat = worst (fun r -> r.med_get_ns)
  and w_dram = worst (fun r -> r.dram)
  and w_restart = worst (fun r -> r.restart_ns) in
  let tbl =
    Table.create
      ~title:
        "Fig 3: four measures normalized to the worst store (smaller = \
         better)"
      ~columns:
        [ ("store", Table.Left); ("write amp", Table.Right);
          ("read latency", Table.Right); ("memory size", Table.Right);
          ("recovery time", Table.Right) ]
  in
  List.iter
    (fun r ->
      Table.add_row tbl
        [ r.o_name;
          Table.cell_f (r.wa /. w_wa);
          Table.cell_f (r.med_get_ns /. w_lat);
          Table.cell_f (r.dram /. w_dram);
          Table.cell_f (r.restart_ns /. w_restart) ])
    rows;
  Table.print tbl;
  pr "Shape check: ChameleonDB is the only store without a ~1.0 (worst)@.";
  pr "entry in any measure.@.@."

(* ------------------------------------------------------------------ *)
(* Figure 10: put throughput vs threads.                               *)
(* ------------------------------------------------------------------ *)

let fig10 scale =
  let tbl =
    Table.create ~title:"Fig 10: put throughput (Mops/s) vs threads"
      ~columns:
        (("store", Table.Left)
        :: List.map
             (fun t -> (Printf.sprintf "%dthr" t, Table.Right))
             scale.Stores.threads)
  in
  List.iter
    (fun spec ->
      let row =
        List.map
          (fun threads ->
            let store = spec.Stores.make () in
            let r =
              Stores.load_unique ~store ~threads ~start_at:0.0
                ~n:scale.Stores.load_keys ~vlen:scale.Stores.vlen
            in
            Table.cell_f (Stores.sustained_mops ~store r))
          scale.Stores.threads
      in
      Table.add_row tbl (spec.Stores.name :: row))
    (Stores.all scale);
  Table.print tbl;
  pr "Shape check: Dram-Hash > ChameleonDB ~ PinK ~ NF >> F >> Pmem-Hash;@.";
  pr "paper headlines: ~3.3x over Pmem-LSM-F, ~6.4x over Pmem-Hash(CCEH).@.@."

(* ------------------------------------------------------------------ *)
(* Figure 11 + Table 2: put latency CDF and tails.                     *)
(* ------------------------------------------------------------------ *)

let tail_table ~title hists =
  let tbl =
    Table.create ~title
      ~columns:
        [ ("store", Table.Left); ("p50", Table.Right); ("p99", Table.Right);
          ("p99.9", Table.Right); ("p99.99", Table.Right);
          ("max", Table.Right) ]
  in
  List.iter
    (fun (name, h) ->
      Table.add_row tbl
        [ name;
          Table.cell_ns (Histogram.percentile h 50.0);
          Table.cell_ns (Histogram.percentile h 99.0);
          Table.cell_ns (Histogram.percentile h 99.9);
          Table.cell_ns (Histogram.percentile h 99.99);
          Table.cell_ns (Histogram.max_value h) ])
    hists;
  Table.print tbl

let cdf_table ~title hists =
  let percentiles = [ 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 99.9; 99.99 ] in
  let tbl =
    Table.create ~title
      ~columns:
        (("percentile", Table.Left)
        :: List.map (fun (n, _) -> (n, Table.Right)) hists)
  in
  List.iter
    (fun p ->
      Table.add_row tbl
        (Printf.sprintf "p%g" p
        :: List.map
             (fun (_, h) -> Table.cell_ns (Histogram.percentile h p))
             hists))
    percentiles;
  Table.print tbl

let fig11 scale =
  let hists =
    List.map
      (fun spec ->
        let store = spec.Stores.make () in
        let r =
          Stores.load_unique ~store ~threads:8 ~start_at:0.0
            ~n:scale.Stores.load_keys ~vlen:scale.Stores.vlen
        in
        (spec.Stores.name, r.Runner.put_latency))
      (Stores.all scale)
  in
  cdf_table ~title:"Fig 11: put latency CDF (8 threads, unique-key load)"
    hists;
  tail_table ~title:"Table 2: tail put latency" hists;
  pr "Shape check: Pmem-Hash median ~10x ChameleonDB's; Dram-Hash has the@.";
  pr "largest max (rehash pause); F-variant stalls on filter-building@.";
  pr "compactions.@.@."

(* ------------------------------------------------------------------ *)
(* Figure 12: get throughput vs threads.                               *)
(* ------------------------------------------------------------------ *)

let fig12 scale =
  let tbl =
    Table.create ~title:"Fig 12: get throughput (Mops/s) vs threads"
      ~columns:
        (("store", Table.Left)
        :: List.map
             (fun t -> (Printf.sprintf "%dthr" t, Table.Right))
             scale.Stores.threads)
  in
  List.iter
    (fun spec ->
      let store = spec.Stores.make () in
      let load =
        Stores.load_unique ~store ~threads:8 ~start_at:0.0
          ~n:scale.Stores.load_keys ~vlen:scale.Stores.vlen
      in
      let cursor = ref (Stores.settled_cursor ~store load) in
      let row =
        List.map
          (fun threads ->
            let r =
              Runner.run_ops ~store ~threads ~start_at:!cursor
                ~ops:scale.Stores.sweep_ops
                ~next:
                  (Stores.uniform_get_gen ~seed:(threads + 77)
                     ~universe:scale.Stores.load_keys)
                ()
            in
            cursor := Stores.settled_cursor ~store r;
            Table.cell_f (Runner.throughput_mops r))
          scale.Stores.threads
      in
      Table.add_row tbl (spec.Stores.name :: row))
    (Stores.all scale);
  Table.print tbl;
  pr "Shape check: Dram-Hash highest; ChameleonDB next (1.5-4.3x the@.";
  pr "other stores); NF lowest.@.@."

(* ------------------------------------------------------------------ *)
(* Figure 13 + Table 3: get latency CDF and tails.                     *)
(* ------------------------------------------------------------------ *)

let fig13 scale =
  let hists =
    List.map
      (fun spec ->
        let store = spec.Stores.make () in
        let load =
          Stores.load_unique ~store ~threads:8 ~start_at:0.0
            ~n:scale.Stores.load_keys ~vlen:scale.Stores.vlen
        in
        let r =
          Runner.run_ops ~store ~threads:1
            ~start_at:(Stores.settled_cursor ~store load)
            ~ops:(scale.Stores.sweep_ops / 2)
            ~next:
              (Stores.uniform_get_gen ~seed:5
                 ~universe:scale.Stores.load_keys)
            ()
        in
        (spec.Stores.name, r.Runner.get_latency))
      (Stores.all scale)
  in
  cdf_table ~title:"Fig 13: get latency CDF (1 thread, uniform random)" hists;
  tail_table ~title:"Table 3: tail get latency" hists;
  (* ChameleonDB's two-stage curve: hit-stage breakdown *)
  let cfg = Stores.chameleon_cfg scale in
  let db = Chameleondb.Store.create ~cfg () in
  let store = Chameleondb.Store.store db in
  let load =
    Stores.load_unique ~store ~threads:8 ~start_at:0.0
      ~n:scale.Stores.load_keys ~vlen:scale.Stores.vlen
  in
  let clock = Clock.create ~at:(Stores.settled_cursor ~store load) () in
  let rng = Workload.Rng.create ~seed:5 in
  let stages = Hashtbl.create 8 in
  for _ = 1 to scale.Stores.sweep_ops / 2 do
    let key =
      Workload.Keyspace.key_of_index
        (Workload.Rng.int rng scale.Stores.load_keys)
    in
    let r = Chameleondb.Store.read db clock key in
    let label =
      match r.Kv_common.Store_intf.stage with
      | Kv_common.Store_intf.Upper -> "upper(degraded)"
      | Kv_common.Store_intf.Last -> "last-level"
      | stage -> Kv_common.Store_intf.stage_name stage
    in
    Hashtbl.replace stages label
      (1 + Option.value ~default:0 (Hashtbl.find_opt stages label))
  done;
  pr "ChameleonDB get hit-stage breakdown (the two CDF stages):@.";
  Hashtbl.iter (fun k v -> pr "  %-16s %d@." k v) stages;
  pr
    "Shape check: ChameleonDB's median sits well below the LSM variants and@.";
  pr "Pmem-Hash; only Dram-Hash is lower.@.@."

(* ------------------------------------------------------------------ *)
(* Figure 14: YCSB workloads, normalized to Pmem-Hash.                 *)
(* ------------------------------------------------------------------ *)

let fig14 scale =
  (* the paper's Fig. 14 mixes: E (scans) has its own experiment, [scan] *)
  let mixes = Workload.Ycsb.[ Load; A; B; C; D; F ] in
  let results = Hashtbl.create 64 in
  List.iter
    (fun spec ->
      List.iter
        (fun mix ->
          let store = spec.Stores.make () in
          let load =
            Stores.load_unique ~store ~threads:8 ~start_at:0.0
              ~n:scale.Stores.load_keys ~vlen:scale.Stores.vlen
          in
          let thr =
            match mix with
            | Workload.Ycsb.Load -> Stores.sustained_mops ~store load
            | _ ->
              let gen =
                Workload.Ycsb.create ~seed:3 ~vlen:scale.Stores.vlen ~mix
                  ~loaded:scale.Stores.load_keys ()
              in
              let r =
                Runner.run_ops ~store ~threads:8
                  ~start_at:(Stores.settled_cursor ~store load)
                  ~ops:scale.Stores.sweep_ops
                  ~next:(fun () -> Workload.Ycsb.next gen)
                  ()
              in
              Runner.throughput_mops r
          in
          Hashtbl.replace results (spec.Stores.name, mix) thr)
        mixes)
    (Stores.all scale);
  let tbl =
    Table.create
      ~title:"Fig 14: YCSB throughput normalized to Pmem-Hash (8 threads)"
      ~columns:
        (("workload", Table.Left) :: ("Pmem-Hash Mops", Table.Right)
        :: List.filter_map
             (fun spec ->
               if spec.Stores.name = "Pmem-Hash" then None
               else Some (spec.Stores.name, Table.Right))
             (Stores.all scale))
  in
  List.iter
    (fun mix ->
      let base = Hashtbl.find results ("Pmem-Hash", mix) in
      Table.add_row tbl
        (Workload.Ycsb.name mix
        :: Table.cell_f base
        :: List.filter_map
             (fun spec ->
               if spec.Stores.name = "Pmem-Hash" then None
               else
                 Some
                   (Table.cell_f
                      (Hashtbl.find results (spec.Stores.name, mix) /. base)))
             (Stores.all scale)))
    mixes;
  Table.print tbl;
  pr "Shape check: ChameleonDB beats everything but Dram-Hash on all mixes@.";
  pr "except D, where the LSM family ties (MemTable hits).@.@."

(* ------------------------------------------------------------------ *)
(* Figure 15: compaction-scheme and Write-Intensive-Mode ablation.     *)
(* ------------------------------------------------------------------ *)

let fig15 scale =
  let variants =
    [ ("Level-by-Level",
       fun cfg -> { cfg with Config.compaction = Config.Level_by_level });
      ("Direct", fun cfg -> cfg);
      ("Direct+WIM", fun cfg -> { cfg with Config.write_intensive = true }) ]
  in
  let tbl =
    Table.create
      ~title:"Fig 15: put throughput during a unique-key load (16 threads)"
      ~columns:
        [ ("configuration", Table.Left); ("Mops/s", Table.Right);
          ("index media bytes", Table.Right); ("compactions", Table.Right);
          ("restart after crash", Table.Right) ]
  in
  List.iter
    (fun (name, f) ->
      let cfg = f (Stores.chameleon_cfg scale) in
      let db = Chameleondb.Store.create ~cfg () in
      let store = Chameleondb.Store.store db in
      let before = Stats.copy (Device.stats (Store_intf.device store)) in
      let i = ref 0 in
      let r =
        (* no clean shutdown: the crash below must find a dirty store; 16
           threads so the media (not the issuing cores) is the bottleneck
           that the modes relieve *)
        Runner.run_ops ~store ~threads:16 ~start_at:0.0
          ~ops:scale.Stores.load_keys
          ~next:(fun () ->
            let key = Workload.Keyspace.key_of_index !i in
            incr i;
            Types.Put (key, scale.Stores.vlen))
          ()
      in
      let after = Stats.copy (Device.stats (Store_intf.device store)) in
      let delta = Stats.diff ~after ~before in
      let log_bytes =
        float_of_int
          (Kv_common.Vlog.bytes_upto (Chameleondb.Store.vlog db)
             (Kv_common.Vlog.length (Chameleondb.Store.vlog db)))
      in
      let index_media = delta.Stats.media_write_bytes -. log_bytes in
      let totals = Chameleondb.Store.totals db in
      let put_mops = Stores.sustained_mops ~store r in
      Chameleondb.Store.crash db;
      let rclock = Clock.create ~at:r.Runner.end_ns () in
      let restart = Chameleondb.Store.recover db rclock in
      Table.add_row tbl
        [ name;
          Table.cell_f put_mops;
          Table.cell_bytes index_media;
          string_of_int
            (totals.Chameleondb.Store.upper_compactions
            + totals.Chameleondb.Store.last_compactions);
          Table.cell_ns restart ])
    variants;
  Table.print tbl;
  pr "Shape check: Direct > Level-by-Level by a few percent; adding WIM@.";
  pr "gains tens of percent more but pays a much longer (yet still@.";
  pr "bounded, cf. Dram-Hash) restart.@.@."

(* ------------------------------------------------------------------ *)
(* Figure 16: get tail latency under put bursts, with/without GPM.     *)
(* ------------------------------------------------------------------ *)

let fig16 scale =
  let stores =
    [ ("Pmem-Hash", (Stores.find scale "Pmem-Hash").Stores.make);
      ("ChamDB (no GPM)", (Stores.chameleon scale).Stores.make);
      ("ChamDB (GPM)",
       (Stores.chameleon
          ~f:(fun cfg -> { cfg with Config.gpm_enabled = true })
          scale)
         .Stores.make) ]
  in
  let threads = 8 in
  let gets_a = scale.Stores.sweep_ops / threads in
  let burst = scale.Stores.load_keys / 4 / threads in
  List.iter
    (fun (name, make) ->
      let store = make () in
      let load =
        Stores.load_unique ~store ~threads:8 ~start_at:0.0
          ~n:scale.Stores.load_keys ~vlen:scale.Stores.vlen
      in
      (* phase plan per thread: gets, burst puts, gets, burst puts, gets *)
      let plan = [| gets_a; burst; gets_a; burst; gets_a |] in
      let rngs =
        Array.init threads (fun i -> Workload.Rng.create ~seed:(100 + i))
      in
      let progress = Array.make threads (0, 0) in
      let fresh = ref scale.Stores.load_keys in
      let gen ~thread ~now:_ =
        let phase, k = progress.(thread) in
        if phase >= Array.length plan then None
        else begin
          let phase, k =
            if k >= plan.(phase) then (phase + 1, 0) else (phase, k)
          in
          if phase >= Array.length plan then begin
            progress.(thread) <- (phase, 0);
            None
          end
          else begin
            progress.(thread) <- (phase, k + 1);
            let burst = phase mod 2 = 1 in
            (* during a burst most requests are fresh-key puts, but gets
               keep flowing so their tail latency is observable *)
            if burst && Workload.Rng.int rngs.(thread) 100 < 80 then begin
              let ix = !fresh in
              incr fresh;
              Some
                (Types.Put
                   (Workload.Keyspace.key_of_index ix, scale.Stores.vlen))
            end
            else
              Some
                (Types.Get
                   (Workload.Keyspace.key_of_index
                      (Workload.Rng.int rngs.(thread) scale.Stores.load_keys)))
          end
        end
      in
      let windows =
        Timeline.run ~store ~threads
          ~start_at:(Stores.settled_cursor ~store load)
          ~window_ns:2_000_000.0 ~gen ()
      in
      let base_p99 =
        match windows with w :: _ -> w.Timeline.get_p99 | [] -> 0.0
      in
      let peak =
        List.fold_left
          (fun a w -> Float.max a w.Timeline.get_p99)
          0.0 windows
      in
      (* sustained burst tail: median window-p99 over burst windows *)
      let burst_p99s =
        List.filter_map
          (fun w ->
            if w.Timeline.puts * 4 > w.Timeline.ops then
              Some w.Timeline.get_p99
            else None)
          windows
        |> List.sort compare
      in
      let sustained =
        match burst_p99s with
        | [] -> 0.0
        | l -> List.nth l (List.length l / 2)
      in
      let tbl =
        Table.create
          ~title:
            (Printf.sprintf
               "Fig 16 [%s]: windowed get p99 and throughput (2ms windows)"
               name)
          ~columns:
            [ ("t (ms)", Table.Right); ("ops", Table.Right);
              ("puts", Table.Right); ("get p99", Table.Right) ]
      in
      let nw = List.length windows in
      let stride = max 1 (nw / 18) in
      List.iteri
        (fun i w ->
          if i mod stride = 0 then
            Table.add_row tbl
              [ Printf.sprintf "%.1f" (w.Timeline.t_start /. 1e6);
                string_of_int w.Timeline.ops;
                string_of_int w.Timeline.puts;
                Table.cell_ns w.Timeline.get_p99 ])
        windows;
      Table.print tbl;
      pr
        "  %s: baseline p99 = %s, burst sustained p99 = %s (%.2fx), \
         transient peak = %s@.@."
        name (Table.cell_ns base_p99) (Table.cell_ns sustained)
        (if base_p99 > 0.0 then sustained /. base_p99 else 0.0)
        (Table.cell_ns peak))
    stores;
  pr "Shape check: Pmem-Hash spikes hardest and longest; GPM cuts@.";
  pr "ChameleonDB's burst peak relative to no-GPM.@.@."

(* ------------------------------------------------------------------ *)
(* Figure 17: vs NoveLSM and MatrixKV across value sizes.              *)
(* ------------------------------------------------------------------ *)

let fig17 scale =
  let value_sizes = [ 64; 256; 1024; 4096; 16384; 65536 ] in
  let write_budget = 3 * scale.Stores.load_keys * 80 / 4 in
  let read_budget = write_budget / 4 in
  (* LSM structures sized so the scaled data set traverses several leveled
     compaction rounds, as the paper's 64 GB does *)
  let mk_stores n =
    let cap = max 1024 (n / 24) in
    [ ("ChameleonDB",
       (Stores.chameleon
          ~f:(fun cfg -> { cfg with Config.shards = 8 })
          scale)
         .Stores.make ());
      ("NoveLSM",
       Baselines.Novelsm.store
         (Baselines.Novelsm.create ~memtable_cap:cap ~l0_runs:4 ()));
      ("MatrixKV",
       (* finer-grained column compactions: small L0, frequent leveled
          rewrites below — the paper measures MatrixKV writing even more
          media bytes than NoveLSM *)
       Baselines.Matrixkv.store
         (Baselines.Matrixkv.create
            ~memtable_cap:(max 512 (n / 64))
            ~l0_sublevels:2 ())) ]
  in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf
           "Fig 17: value-size sweep vs NoveLSM/MatrixKV (write %s, read %s)"
           (Table.cell_bytes (float_of_int write_budget))
           (Table.cell_bytes (float_of_int read_budget)))
      ~columns:
        [ ("vsize", Table.Right); ("store", Table.Left);
          ("put Kops/s", Table.Right); ("Pmem W bytes", Table.Right);
          ("W GB/s", Table.Right); ("get Kops/s", Table.Right);
          ("Pmem R bytes", Table.Right); ("R GB/s", Table.Right) ]
  in
  List.iter
    (fun vlen ->
      let n = max 4_000 (write_budget / (16 + vlen)) in
      let nreads = max 2_000 (read_budget / (16 + vlen)) in
      List.iter
        (fun (name, store) ->
          let before = Stats.copy (Device.stats (Store_intf.device store)) in
          let load =
            Stores.load_unique ~store ~threads:1 ~start_at:0.0 ~n ~vlen
          in
          let mid = Stats.copy (Device.stats (Store_intf.device store)) in
          let wdelta = Stats.diff ~after:mid ~before in
          let put_kops = Stores.sustained_mops ~store load *. 1000.0 in
          let put_duration =
            Stores.settled_cursor ~store load -. load.Runner.start_ns
          in
          let gets =
            Runner.run_ops ~store ~threads:1
              ~start_at:(Stores.settled_cursor ~store load) ~ops:nreads
              ~next:(Stores.uniform_get_gen ~seed:9 ~universe:n)
              ()
          in
          let rdelta =
            Stats.diff
              ~after:(Stats.copy (Device.stats (Store_intf.device store)))
              ~before:mid
          in
          Table.add_row tbl
            [ Table.cell_bytes (float_of_int vlen);
              name;
              Table.cell_f put_kops;
              Table.cell_bytes wdelta.Stats.media_write_bytes;
              Table.cell_f (wdelta.Stats.media_write_bytes /. put_duration);
              Table.cell_f (Runner.throughput_mops gets *. 1000.0);
              Table.cell_bytes rdelta.Stats.media_read_bytes;
              Table.cell_f
                (rdelta.Stats.media_read_bytes /. Runner.sim_ns gets) ])
        (mk_stores n);
      Table.add_rule tbl)
    value_sizes;
  Table.print tbl;
  pr "Shape check: ChameleonDB wins puts and gets at every value size;@.";
  pr "NoveLSM/MatrixKV write many times more media bytes (leveled@.";
  pr "compaction, in-Pmem skiplist, RowTable metadata).@.@."

(* ------------------------------------------------------------------ *)
(* Tables 1 and 5: configuration and workload definitions.             *)
(* ------------------------------------------------------------------ *)

let tab1 scale =
  let cfg = Stores.chameleon_cfg scale in
  let tbl =
    Table.create ~title:"Table 1: ChameleonDB configuration (scaled)"
      ~columns:[ ("parameter", Table.Left); ("value", Table.Left) ]
  in
  Table.add_row tbl
    [ "# of Shards";
      Printf.sprintf "%d (paper: 16384)" cfg.Config.shards ];
  Table.add_row tbl
    [ "MemTable Size";
      Printf.sprintf "%dB per shard (paper: 8KB)"
        (cfg.Config.memtable_slots * 16) ];
  Table.add_row tbl
    [ "# of Levels"; Printf.sprintf "%d (including last)" cfg.Config.levels ];
  Table.add_row tbl
    [ "Between-level Ratio"; string_of_int cfg.Config.ratio ];
  Table.add_row tbl
    [ "Load Factor";
      Printf.sprintf "randomly from %.2f to %.2f" cfg.Config.lf_min
        cfg.Config.lf_max ];
  Table.add_row tbl
    [ "ABI Size";
      Printf.sprintf "%dB per shard (paper: 512KB)"
        (cfg.Config.abi_slots_factor * cfg.Config.memtable_slots * 16) ];
  Table.add_row tbl
    [ "Log batch"; Printf.sprintf "%dB" cfg.Config.vlog_batch_bytes ];
  Table.print tbl

let tab5 _scale =
  let tbl =
    Table.create ~title:"Table 5: YCSB workloads"
      ~columns:[ ("workload", Table.Left); ("description", Table.Left) ]
  in
  List.iter
    (fun mix ->
      Table.add_row tbl
        [ Workload.Ycsb.name mix; Workload.Ycsb.description mix ])
    Workload.Ycsb.all;
  Table.print tbl

(* ------------------------------------------------------------------ *)
(* Write-amplification formula check (Section 2.5).                    *)
(* ------------------------------------------------------------------ *)

let wa_check scale =
  let cfg = Stores.chameleon_cfg scale in
  let db = Chameleondb.Store.create ~cfg () in
  let store = Chameleondb.Store.store db in
  let before = Stats.copy (Device.stats (Store_intf.device store)) in
  let _ =
    Stores.load_unique ~store ~threads:4 ~start_at:0.0
      ~n:scale.Stores.load_keys ~vlen:scale.Stores.vlen
  in
  let delta =
    Stats.diff
      ~after:(Stats.copy (Device.stats (Store_intf.device store)))
      ~before
  in
  let vlog = Chameleondb.Store.vlog db in
  let log_bytes =
    float_of_int (Kv_common.Vlog.bytes_upto vlog (Kv_common.Vlog.length vlog))
  in
  let index_media = delta.Stats.media_write_bytes -. log_bytes in
  let index_user = float_of_int (scale.Stores.load_keys * 16) in
  let measured = index_media /. index_user in
  let l = float_of_int cfg.Config.levels
  and r = float_of_int cfg.Config.ratio in
  let f = (cfg.Config.lf_min +. cfg.Config.lf_max) /. 2.0 in
  let formula = (l -. 1.0 +. r) /. f in
  let tbl =
    Table.create ~title:"WA: index write amplification vs formula (l-1+r)/f"
      ~columns:[ ("quantity", Table.Left); ("value", Table.Right) ]
  in
  Table.add_row tbl [ "measured index WA"; Table.cell_f measured ];
  Table.add_row tbl [ "formula (l-1+r)/f"; Table.cell_f formula ];
  Table.add_row tbl
    [ "index media bytes"; Table.cell_bytes index_media ];
  Table.add_row tbl [ "log bytes"; Table.cell_bytes log_bytes ];
  Table.print tbl;
  pr "Shape check: measured within ~2x of the closed form (the formula@.";
  pr "assumes a full steady-state cycle; edges and dedup shift it).@.@."

(* ------------------------------------------------------------------ *)
(* Ablations beyond the paper.                                         *)
(* ------------------------------------------------------------------ *)

let abl_abi scale =
  let variants =
    [ ("ABI enabled", fun cfg -> cfg);
      ("ABI disabled",
       fun cfg -> { cfg with Config.abi_enabled = false }) ]
  in
  let tbl =
    Table.create ~title:"abl-abi: gets with and without the ABI"
      ~columns:
        [ ("configuration", Table.Left); ("get Mops/s", Table.Right);
          ("median get", Table.Right); ("p99 get", Table.Right) ]
  in
  List.iter
    (fun (name, f) ->
      let spec = Stores.chameleon ~f scale in
      let store = spec.Stores.make () in
      let load =
        Stores.load_unique ~store ~threads:8 ~start_at:0.0
          ~n:scale.Stores.load_keys ~vlen:scale.Stores.vlen
      in
      let r =
        Runner.run_ops ~store ~threads:8
          ~start_at:(Stores.settled_cursor ~store load)
          ~ops:scale.Stores.sweep_ops
          ~next:(Stores.uniform_get_gen ~seed:4 ~universe:scale.Stores.load_keys)
          ()
      in
      Table.add_row tbl
        [ name;
          Table.cell_f (Runner.throughput_mops r);
          Table.cell_ns (Histogram.median r.Runner.get_latency);
          Table.cell_ns (Histogram.percentile r.Runner.get_latency 99.0) ])
    variants;
  Table.print tbl;
  pr "Shape check: without the ABI the store degenerates to multi-level@.";
  pr "Pmem probing (Pmem-LSM-NF-like latency).@.@."

let abl_shards scale =
  let variants =
    [ ("randomized LF [0.65,0.85]", fun cfg -> cfg);
      ("fixed LF 0.75",
       fun cfg -> { cfg with Config.lf_min = 0.75; lf_max = 0.75 }) ]
  in
  let tbl =
    Table.create
      ~title:"abl-shards: compaction staggering via randomized load factors"
      ~columns:
        [ ("configuration", Table.Left); ("Mops/s", Table.Right);
          ("worst window Mops/s", Table.Right);
          ("window stddev", Table.Right) ]
  in
  List.iter
    (fun (name, f) ->
      let spec = Stores.chameleon ~f scale in
      let store = spec.Stores.make () in
      let i = ref 0 in
      let n = scale.Stores.load_keys in
      let gen ~thread:_ ~now:_ =
        if !i >= n then None
        else begin
          let key = Workload.Keyspace.key_of_index !i in
          incr i;
          Some (Types.Put (key, scale.Stores.vlen))
        end
      in
      let windows =
        Timeline.run ~store ~threads:8 ~start_at:0.0 ~window_ns:1_000_000.0
          ~gen ()
      in
      let rates =
        List.map (fun w -> float_of_int w.Timeline.ops /. 1000.0) windows
      in
      let total = List.fold_left ( +. ) 0.0 rates in
      let mean = total /. float_of_int (List.length rates) in
      let var =
        List.fold_left (fun a x -> a +. ((x -. mean) ** 2.0)) 0.0 rates
        /. float_of_int (List.length rates)
      in
      let worst = List.fold_left Float.min infinity rates in
      Table.add_row tbl
        [ name; Table.cell_f mean; Table.cell_f worst;
          Table.cell_f (sqrt var) ])
    variants;
  Table.print tbl;
  pr "Shape check: fixed load factors synchronize shard compactions,@.";
  pr "deepening the worst windows.@.@."

let abl_bloom scale =
  let tbl =
    Table.create ~title:"abl-bloom: Pmem-LSM-F bits-per-key sweep"
      ~columns:
        [ ("bits/key", Table.Right); ("put Mops/s", Table.Right);
          ("get Mops/s", Table.Right); ("median get", Table.Right) ]
  in
  List.iter
    (fun bits ->
      let cfg = Stores.chameleon_cfg scale in
      let lsm =
        Baselines.Pmem_lsm.create ~cfg ~bloom_bits:bits Baselines.Pmem_lsm.F
      in
      let store = Baselines.Pmem_lsm.store lsm in
      let load =
        Stores.load_unique ~store ~threads:8 ~start_at:0.0
          ~n:(scale.Stores.load_keys / 2) ~vlen:scale.Stores.vlen
      in
      let gets =
        Runner.run_ops ~store ~threads:8
          ~start_at:(Stores.settled_cursor ~store load)
          ~ops:(scale.Stores.sweep_ops / 2)
          ~next:
            (Stores.uniform_get_gen ~seed:6
               ~universe:(scale.Stores.load_keys / 2))
          ()
      in
      Table.add_row tbl
        [ string_of_int bits;
          Table.cell_f (Stores.sustained_mops ~store load);
          Table.cell_f (Runner.throughput_mops gets);
          Table.cell_ns (Histogram.median gets.Runner.get_latency) ])
    [ 4; 8; 12; 16 ];
  Table.print tbl;
  pr "Shape check: more bits cut false-positive probes (gets improve@.";
  pr "slightly) but construction cost stays the put bottleneck.@.@."

let abl_gc scale =
  let cfg = Stores.chameleon_cfg scale in
  let db = Chameleondb.Store.create ~cfg () in
  let n = scale.Stores.load_keys / 2 in
  (* three write rounds: 2/3 of the log is superseded garbage *)
  let clock = Clock.create () in
  for round = 1 to 3 do
    ignore round;
    for i = 0 to n - 1 do
      Chameleondb.Store.write db clock
        (Workload.Keyspace.key_of_index i)
        (Kv_common.Store_intf.Sized scale.Stores.vlen)
    done
  done;
  let vlog = Chameleondb.Store.vlog db in
  let tbl =
    Table.create ~title:"abl-gc: value-log garbage collection passes"
      ~columns:
        [ ("pass", Table.Right); ("scanned", Table.Right);
          ("live", Table.Right); ("dead", Table.Right);
          ("reclaimed", Table.Right); ("log live bytes", Table.Right);
          ("pass cost", Table.Right) ]
  in
  Table.add_row tbl
    [ "-"; "-"; "-"; "-"; "-";
      Table.cell_bytes (float_of_int (Kv_common.Vlog.live_bytes vlog)); "-" ];
  let continue = ref true in
  let pass = ref 0 in
  while !continue && !pass < 20 do
    incr pass;
    let t0 = Clock.now clock in
    let s = Chameleondb.Store.gc db clock ~max_entries:(n / 2) () in
    Table.add_row tbl
      [ string_of_int !pass;
        string_of_int s.Chameleondb.Store.gc_scanned;
        string_of_int s.Chameleondb.Store.gc_live;
        string_of_int s.Chameleondb.Store.gc_dead;
        Table.cell_bytes (float_of_int s.Chameleondb.Store.gc_reclaimed_bytes);
        Table.cell_bytes (float_of_int (Kv_common.Vlog.live_bytes vlog));
        Table.cell_ns (Clock.now clock -. t0) ];
    if s.Chameleondb.Store.gc_scanned = 0 then continue := false;
    (* stop once the head has chased the tail down to ~the live set *)
    if Kv_common.Vlog.live_bytes vlog < 2 * n * (16 + scale.Stores.vlen) then
      continue := false
  done;
  (* data intact after collection *)
  let missing = ref 0 in
  for i = 0 to n - 1 do
    if
      (Chameleondb.Store.read db clock (Workload.Keyspace.key_of_index i))
        .Kv_common.Store_intf.loc = None
    then incr missing
  done;
  Table.print tbl;
  pr "Post-GC verification: %d of %d keys missing (must be 0).@." !missing n;
  pr "Shape check: dead fraction ~2/3 on early passes; live bytes converge@.";
  pr "to one version per key.@.@."

let abl_ratio scale =
  let tbl =
    Table.create ~title:"abl-ratio: between-level ratio r"
      ~columns:
        [ ("r", Table.Right); ("put Mops/s", Table.Right);
          ("index WA", Table.Right); ("median get", Table.Right);
          ("compactions", Table.Right) ]
  in
  List.iter
    (fun r ->
      let base = Stores.chameleon_cfg scale in
      let cfg =
        { base with
          Config.ratio = r;
          (* keep the ABI large enough for the worst-case upper content *)
          abi_slots_factor = 2 * r * r * r }
      in
      let db = Chameleondb.Store.create ~cfg () in
      let store = Chameleondb.Store.store db in
      let before = Stats.copy (Device.stats (Store_intf.device store)) in
      let load =
        Stores.load_unique ~store ~threads:8 ~start_at:0.0
          ~n:scale.Stores.load_keys ~vlen:scale.Stores.vlen
      in
      let delta =
        Stats.diff
          ~after:(Stats.copy (Device.stats (Store_intf.device store)))
          ~before
      in
      let vlog = Chameleondb.Store.vlog db in
      let log_bytes =
        float_of_int (Kv_common.Vlog.bytes_upto vlog (Kv_common.Vlog.length vlog))
      in
      let index_wa =
        (delta.Stats.media_write_bytes -. log_bytes)
        /. float_of_int (scale.Stores.load_keys * 16)
      in
      let put_mops = Stores.sustained_mops ~store load in
      let gets =
        Runner.run_ops ~store ~threads:1
          ~start_at:(Stores.settled_cursor ~store load)
          ~ops:(scale.Stores.sweep_ops / 4)
          ~next:(Stores.uniform_get_gen ~seed:8 ~universe:scale.Stores.load_keys)
          ()
      in
      let totals = Chameleondb.Store.totals db in
      Table.add_row tbl
        [ string_of_int r;
          Table.cell_f put_mops;
          Table.cell_f index_wa;
          Table.cell_ns (Histogram.median gets.Runner.get_latency);
          string_of_int
            (totals.Chameleondb.Store.upper_compactions
            + totals.Chameleondb.Store.last_compactions) ])
    [ 2; 4; 8 ];
  Table.print tbl;
  pr "Shape check: WA follows (l-1+r)/f — larger r costs more write@.";
  pr "amplification in the leveled last level but fewer compactions.@.@."

let abl_batch scale =
  let tbl =
    Table.create ~title:"abl-batch: storage-log batch size"
      ~columns:
        [ ("batch", Table.Right); ("put Mops/s", Table.Right);
          ("put p99", Table.Right); ("put p99.9", Table.Right) ]
  in
  List.iter
    (fun batch ->
      let cfg =
        { (Stores.chameleon_cfg scale) with Config.vlog_batch_bytes = batch }
      in
      let db = Chameleondb.Store.create ~cfg () in
      let store = Chameleondb.Store.store db in
      let r =
        Stores.load_unique ~store ~threads:8 ~start_at:0.0
          ~n:(scale.Stores.load_keys / 2) ~vlen:scale.Stores.vlen
      in
      Table.add_row tbl
        [ Table.cell_bytes (float_of_int batch);
          Table.cell_f (Stores.sustained_mops ~store r);
          Table.cell_ns (Histogram.percentile r.Runner.put_latency 99.0);
          Table.cell_ns (Histogram.percentile r.Runner.put_latency 99.9) ])
    [ 256; 1024; 4096; 16384 ];
  Table.print tbl;
  pr "Shape check: tiny batches persist more often (higher per-op cost);@.";
  pr "large batches amortize better but lengthen the unpersisted tail.@.@."

let abl_device scale =
  (* the paper's thesis is device-specific: on a slow block device the
     Bloom-filter LSM is the right design and the ABI buys little, while on
     Optane the filter checks dominate and the ABI wins.  Run ChameleonDB
     and Pmem-LSM-F on both profiles. *)
  let tbl =
    Table.create ~title:"abl-device: design fit vs device (1-thread gets)"
      ~columns:
        [ ("device", Table.Left); ("store", Table.Left);
          ("median get", Table.Right); ("get Kops/s", Table.Right);
          ("Cham advantage", Table.Right) ]
  in
  List.iter
    (fun (dev_name, profile) ->
      let run make =
        let dev = Device.create profile in
        let store = make dev in
        (* load past the compaction cycle so most keys live in the last
           level, as in the main experiments *)
        let load =
          Stores.load_unique ~store ~threads:4 ~start_at:0.0
            ~n:scale.Stores.load_keys ~vlen:scale.Stores.vlen
        in
        Runner.run_ops ~store ~threads:1
          ~start_at:(Stores.settled_cursor ~store load)
          ~ops:(scale.Stores.sweep_ops / 8)
          ~next:
            (Stores.uniform_get_gen ~seed:14
               ~universe:scale.Stores.load_keys)
          ()
      in
      let cfg =
        { (Stores.chameleon_cfg scale) with Config.shards = 8 }
      in
      let cham =
        run (fun dev ->
            Chameleondb.Store.store (Chameleondb.Store.create ~cfg ~dev ()))
      in
      let f =
        run (fun dev ->
            Baselines.Pmem_lsm.store
              (Baselines.Pmem_lsm.create ~cfg ~dev Baselines.Pmem_lsm.F))
      in
      let kops r = Runner.throughput_mops r *. 1000.0 in
      Table.add_row tbl
        [ dev_name; "ChameleonDB";
          Table.cell_ns (Histogram.median cham.Runner.get_latency);
          Table.cell_f (kops cham);
          Printf.sprintf "%.2fx" (kops cham /. kops f) ];
      Table.add_row tbl
        [ dev_name; "Pmem-LSM-F";
          Table.cell_ns (Histogram.median f.Runner.get_latency);
          Table.cell_f (kops f); "" ];
      Table.add_rule tbl)
    [ ("Optane", Cost_model.optane); ("NVMe-SSD", Cost_model.nvme_ssd) ];
  Table.print tbl;
  pr "Shape check: the ABI's advantage over the filtered LSM is large on@.";
  pr "Optane and nearly vanishes on the SSD, where device reads dwarf@.";
  pr "filter checks (the paper's Fig. 2 argument inverted).@.@."

(* ------------------------------------------------------------------ *)
(* Service: Fig 16's burst scenario re-run open-loop through the       *)
(* serving layer (wire codec, scheduler queue, admission control).     *)
(* ------------------------------------------------------------------ *)

let service scale =
  let workers = 8 in
  let vlen = scale.Stores.vlen in
  let n_keys = scale.Stores.load_keys in
  let reqgen_get = Service.Loadgen.mixed_reqgen ~n_keys ~get_frac:1.0 ~vlen in
  let reqgen_put = Service.Loadgen.mixed_reqgen ~n_keys ~get_frac:0.0 ~vlen in
  let mk ~gpm () =
    let cfg = Stores.chameleon_cfg scale in
    let cfg = if gpm then { cfg with Config.gpm_enabled = true } else cfg in
    let db = Chameleondb.Store.create ~cfg () in
    let store = Chameleondb.Store.store db in
    let load =
      Stores.load_unique ~store ~threads:workers ~start_at:0.0 ~n:n_keys ~vlen
    in
    (db, store, Stores.settled_cursor ~store load)
  in
  (* capacity probe: closed-loop gets saturate the worker pool, giving the
     Mreq/s the offered open-loop rates are expressed against *)
  let _, pstore, pt0 = mk ~gpm:false () in
  let conns = workers * 4 in
  let probe =
    Service.Server.run ~store:pstore ~workers ~start_at:pt0
      ~closed:
        (Service.Loadgen.closed_loop ~conns
           ~reqs_per_conn:(max 64 (scale.Stores.sweep_ops / conns / 4))
           ~reqgen:reqgen_get ())
      ()
  in
  let cap = Service.Server.throughput_mops probe in
  pr "Closed-loop capacity probe: %.2f Mreq/s over %d workers (get p99 %s)@.@."
    cap workers
    (Table.cell_ns (Histogram.percentile probe.Service.Server.get_service 99.0));
  (* open-loop offered load: a steady get stream at 60%% of capacity plus a
     square wave of put bursts that pushes the total past capacity during
     each burst, as in Fig 16 *)
  let get_rate = 0.6 *. cap in
  let burst_rate = 0.9 *. cap in
  let base_rate = 0.05 *. cap in
  let avg_rate = get_rate +. (0.25 *. burst_rate) +. (0.75 *. base_rate) in
  let duration_ns =
    float_of_int scale.Stores.sweep_ops /. avg_rate *. 1000.0
  in
  let period_ns = duration_ns /. 4.0 in
  let window_ns = Float.max 100_000.0 (duration_ns /. 64.0) in
  let run_variant ~gpm ~admit ~sched () =
    let db, store, t0 = mk ~gpm () in
    let gets =
      Service.Loadgen.open_loop ~seed:21 ~conns:4
        ~process:(Service.Loadgen.Poisson { rate_mops = get_rate })
        ~reqgen:reqgen_get ~duration_ns ~start_at:t0 ()
    in
    let puts =
      Service.Loadgen.open_loop ~seed:22 ~conns:4 ~conn_base:100
        ~process:
          (Service.Loadgen.Square
             { base_mops = base_rate; burst_mops = burst_rate; period_ns;
               duty = 0.25 })
        ~reqgen:reqgen_put ~duration_ns ~start_at:t0 ()
    in
    let arrivals = Service.Loadgen.merge [ gets; puts ] in
    let admission =
      if admit then
        Some
          (Service.Admission.create
             ~signals:(Chameleondb.Store.signals db)
             ~burst:512.0
             ~rate_mops:(Float.max 0.1 (0.4 *. cap))
             ())
      else None
    in
    Service.Server.run ?admission ~sched ~store ~workers ~start_at:t0
      ~window_ns ~arrivals ()
  in
  let variants =
    [ ("no GPM", false, false); ("GPM", true, false);
      ("GPM+admission", true, true) ]
  in
  let results =
    List.map
      (fun (name, gpm, admit) ->
        (name, run_variant ~gpm ~admit ~sched:Service.Server.Fifo ()))
      variants
  in
  (* burst-window tail: windows where writes dominate, as in fig16 *)
  let burst_p99 s =
    let l =
      List.filter_map
        (fun w ->
          if w.Service.Server.w_writes * 4 > w.Service.Server.w_reqs
             && w.Service.Server.w_gets > 0
          then Some w.Service.Server.w_get_p99
          else None)
        s.Service.Server.windows
      |> List.sort compare
    in
    match l with [] -> 0.0 | _ -> List.nth l (List.length l / 2)
  in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf
           "service: open-loop burst scenario (%d workers, %.2f Mreq/s gets, \
            %.2f Mreq/s put bursts)"
           workers get_rate burst_rate)
      ~columns:
        [ ("configuration", Table.Left); ("reqs", Table.Right);
          ("Mops/s", Table.Right); ("shed", Table.Right);
          ("maxQ", Table.Right); ("get p50", Table.Right);
          ("get p99", Table.Right); ("burst get p99", Table.Right);
          ("put p99", Table.Right) ]
  in
  List.iter
    (fun (name, s) ->
      Table.add_row tbl
        [ name;
          string_of_int s.Service.Server.submitted;
          Table.cell_f (Service.Server.throughput_mops s);
          Printf.sprintf "%.1f%%" (100.0 *. Service.Server.shed_rate s);
          string_of_int s.Service.Server.max_depth;
          Table.cell_ns
            (Histogram.percentile s.Service.Server.get_service 50.0);
          Table.cell_ns
            (Histogram.percentile s.Service.Server.get_service 99.0);
          Table.cell_ns (burst_p99 s);
          Table.cell_ns
            (Histogram.percentile s.Service.Server.put_service 99.0) ])
    results;
  Table.print tbl;
  (* windowed timeline for the two extremes *)
  List.iter
    (fun (name, s) ->
      if name <> "GPM" then begin
        let tbl =
          Table.create
            ~title:
              (Printf.sprintf "service [%s]: windowed get service p99" name)
            ~columns:
              [ ("t (ms)", Table.Right); ("reqs", Table.Right);
                ("writes", Table.Right); ("shed", Table.Right);
                ("get p99", Table.Right) ]
        in
        let nw = List.length s.Service.Server.windows in
        let stride = max 1 (nw / 16) in
        List.iteri
          (fun i w ->
            if i mod stride = 0 then
              Table.add_row tbl
                [ Printf.sprintf "%.1f"
                    ((w.Service.Server.w_start -. s.Service.Server.start_ns)
                    /. 1e6);
                  string_of_int w.Service.Server.w_reqs;
                  string_of_int w.Service.Server.w_writes;
                  string_of_int w.Service.Server.w_shed;
                  Table.cell_ns w.Service.Server.w_get_p99 ])
          s.Service.Server.windows;
        Table.print tbl
      end)
    results;
  (* SLO attainment on get service latency, queueing included *)
  Table.print
    (Metrics.Slo.table ~title:"service: get SLO attainment (service latency)"
       ~targets:
         [ Metrics.Slo.target ~name:"5us" ~ns:5_000.0;
           Metrics.Slo.target ~name:"20us" ~ns:20_000.0;
           Metrics.Slo.target ~name:"100us" ~ns:100_000.0 ]
       (List.map (fun (n, s) -> (n, s.Service.Server.get_service)) results));
  (* scheduler comparison at the protected configuration *)
  let sched_tbl =
    Table.create ~title:"service: scheduler comparison (GPM+admission)"
      ~columns:
        [ ("scheduler", Table.Left); ("Mops/s", Table.Right);
          ("get p99", Table.Right); ("queue wait p99", Table.Right);
          ("maxQ", Table.Right) ]
  in
  List.iter
    (fun sched ->
      let s = run_variant ~gpm:true ~admit:true ~sched () in
      Table.add_row sched_tbl
        [ Service.Server.sched_name sched;
          Table.cell_f (Service.Server.throughput_mops s);
          Table.cell_ns
            (Histogram.percentile s.Service.Server.get_service 99.0);
          Table.cell_ns
            (Histogram.percentile s.Service.Server.queue_wait 99.0);
          string_of_int s.Service.Server.max_depth ])
    [ Service.Server.Fifo; Service.Server.Shard_affinity ];
  Table.print sched_tbl;
  let p99 name =
    burst_p99 (List.assoc name results)
  in
  let shed = Service.Server.shed_rate (List.assoc "GPM+admission" results) in
  pr
    "Shape check: burst-window get p99 — no GPM %s vs GPM %s vs \
     GPM+admission %s;@."
    (Table.cell_ns (p99 "no GPM"))
    (Table.cell_ns (p99 "GPM"))
    (Table.cell_ns (p99 "GPM+admission"));
  pr "GPM must cut the burst tail materially and admission sheds a bounded@.";
  pr "fraction (%.1f%% here) rather than letting the queue run away.@.@."
    (100.0 *. shed)

(* ------------------------------------------------------------------ *)
(* batch: end-to-end write batching — client batches, server group     *)
(* commit, and the Hybrid-Viper store's single-fence batch path.       *)
(* ------------------------------------------------------------------ *)

(* All-put request generator: batch <= 1 emits bare Put frames, larger
   sizes emit [Proto.Batch] frames whose inner ops all share the frame's
   intended arrival (coordinated-omission-free per-op timing). *)
let batch_reqgen ~n_keys ~vlen ~batch =
  let payload = Bytes.make vlen 'v' in
  fun rng ->
    let put () =
      Service.Proto.Put
        (Workload.Keyspace.key_of_index (Workload.Rng.int rng n_keys), payload)
    in
    if batch <= 1 then put ()
    else Service.Proto.Batch (List.init batch (fun _ -> put ()))

let batch_exp scale ~seed =
  let metric, metrics = recorder () in
  let workers = 8 in
  let vlen = scale.Stores.vlen in
  let n_keys = scale.Stores.load_keys in
  let mk () =
    let store = (Stores.find scale "Hybrid-Viper").Stores.make () in
    let load =
      Stores.load_unique ~store ~threads:workers ~start_at:0.0 ~n:n_keys ~vlen
    in
    (store, Stores.settled_cursor ~store load)
  in
  (* capacity probe: closed-loop single-put frames — every ack pays a
     full persist fence, the floor the batched runs amortize away *)
  let pstore, pt0 = mk () in
  let conns = workers * 4 in
  let probe =
    Service.Server.run ~store:pstore ~workers ~start_at:pt0
      ~closed:
        (Service.Loadgen.closed_loop ~seed ~conns
           ~reqs_per_conn:(max 64 (scale.Stores.sweep_ops / conns / 4))
           ~reqgen:(batch_reqgen ~n_keys ~vlen ~batch:1) ())
      ()
  in
  let cap = Service.Server.throughput_mops probe in
  metric "capacity_mops" cap;
  pr "Closed-loop put capacity at batch 1: %.2f Mops/s over %d workers@.@."
    cap workers;
  let ops_target = scale.Stores.sweep_ops in
  let counter s n =
    Option.value ~default:0.0 (List.assoc_opt n s.Service.Server.counters)
  in
  let run_cell ~batch ~linger_ns ~rate =
    let store, t0 = mk () in
    let frame_rate = rate /. float_of_int (max 1 batch) in
    let duration_ns = float_of_int ops_target /. rate *. 1000.0 in
    let arrivals =
      Service.Loadgen.open_loop ~seed:(seed + 30) ~conns:8
        ~process:(Service.Loadgen.Poisson { rate_mops = frame_rate })
        ~reqgen:(batch_reqgen ~n_keys ~vlen ~batch)
        ~duration_ns ~start_at:t0 ()
    in
    Service.Server.run ~store ~workers ~start_at:t0 ~linger_ns ~arrivals ()
  in
  let batches = [ 1; 4; 16; 64 ] in
  let rates = [ 0.5; 1.5; 3.0 ] in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf
           "batch: Hybrid-Viper put throughput and intended-arrival tail vs \
            client batch size (%d workers, offered rates x%s of batch-1 \
            capacity, seed %d)"
           workers "{0.5,1.5,3}" seed)
      ~columns:
        [ ("batch", Table.Right); ("offered", Table.Right);
          ("Mops/s", Table.Right); ("put p50", Table.Right);
          ("put p99", Table.Right); ("fences/op", Table.Right) ]
  in
  List.iter
    (fun batch ->
      List.iter
        (fun x ->
          let rate = x *. cap in
          let s = run_cell ~batch ~linger_ns:0.0 ~rate in
          let mops = Service.Server.throughput_mops s in
          let p q = Histogram.percentile s.Service.Server.put_service q in
          let fences =
            counter s "vlog.batch_flushes"
            /. Float.max 1.0 (float_of_int s.Service.Server.ops_executed)
          in
          let cell = Printf.sprintf "batch%d/x%g/" batch x in
          metric (cell ^ "mops") mops;
          metric (cell ^ "put_p50_ns") (p 50.0);
          metric (cell ^ "put_p99_ns") (p 99.0);
          metric (cell ^ "fences_per_op") fences;
          Table.add_row tbl
            [ string_of_int batch;
              Printf.sprintf "%.2f" rate;
              Table.cell_f mops;
              Table.cell_ns (p 50.0);
              Table.cell_ns (p 99.0);
              Table.cell_f fences ])
        rates;
      Table.add_rule tbl)
    batches;
  Table.print tbl;
  (* server-side group commit: the same single-put frames, but the
     dispatcher lingers to coalesce queued writes into one write_batch.
     Run near capacity, where the queue is shallow — overload groups by
     itself, linger is what buys grouping before the queue builds up *)
  let lgr_tbl =
    Table.create
      ~title:
        "batch: server group commit on single-put frames (linger sweep at \
         0.9x capacity)"
      ~columns:
        [ ("linger", Table.Right); ("Mops/s", Table.Right);
          ("put p99", Table.Right); ("grouped", Table.Right);
          ("fences/op", Table.Right) ]
  in
  List.iter
    (fun linger_ns ->
      let s = run_cell ~batch:1 ~linger_ns ~rate:(0.9 *. cap) in
      let grouped =
        counter s "service.grouped_writes"
        /. Float.max 1.0 (float_of_int s.Service.Server.ops_executed)
      in
      let fences =
        counter s "vlog.batch_flushes"
        /. Float.max 1.0 (float_of_int s.Service.Server.ops_executed)
      in
      let cell = Printf.sprintf "linger%.0fns/" linger_ns in
      metric (cell ^ "mops") (Service.Server.throughput_mops s);
      metric (cell ^ "grouped_frac") grouped;
      metric (cell ^ "fences_per_op") fences;
      Table.add_row lgr_tbl
        [ Table.cell_ns linger_ns;
          Table.cell_f (Service.Server.throughput_mops s);
          Table.cell_ns
            (Histogram.percentile s.Service.Server.put_service 99.0);
          Printf.sprintf "%.0f%%" (100.0 *. grouped);
          Table.cell_f fences ])
    [ 0.0; 500.0; 2_000.0; 8_000.0 ];
  Table.print lgr_tbl;
  (* Fig 3's write column with the hybrid in the zoo: bulk-load put
     throughput per store, normalized to ChameleonDB *)
  let wtbl =
    Table.create
      ~title:"batch: write column across the zoo (batched bulk load)"
      ~columns:
        [ ("store", Table.Left); ("put Mops/s", Table.Right);
          ("vs ChameleonDB", Table.Right) ]
  in
  let wload = max 1 (n_keys / 2) in
  let writes =
    List.map
      (fun spec ->
        let store = spec.Stores.make () in
        let r =
          Stores.load_unique ~store ~threads:workers ~start_at:0.0 ~n:wload
            ~vlen
        in
        (spec.Stores.name, Stores.sustained_mops ~store r))
      (Stores.all scale)
  in
  let base =
    Option.value ~default:1.0 (List.assoc_opt "ChameleonDB" writes)
  in
  List.iter
    (fun (name, mops) ->
      metric ("write/" ^ name ^ "/mops") mops;
      Table.add_row wtbl
        [ name; Table.cell_f mops; Printf.sprintf "%.2fx" (mops /. base) ])
    writes;
  Table.print wtbl;
  (* restart-time gap: the hybrid's DRAM index costs a full log replay on
     recovery, ChameleonDB restarts from its persistent levels *)
  let rtbl =
    Table.create
      ~title:"batch: restart time after crash (index recovery)"
      ~columns:
        [ ("store", Table.Left); ("keys", Table.Right);
          ("restart", Table.Right); ("vs ChameleonDB", Table.Right) ]
  in
  let restart name =
    let spec = Stores.find scale name in
    let store = spec.Stores.make () in
    let load =
      Stores.load_unique ~store ~threads:workers ~start_at:0.0 ~n:n_keys ~vlen
    in
    let t0 = Stores.settled_cursor ~store load in
    Store_intf.crash store;
    let c = Clock.create ~at:t0 () in
    Store_intf.recover store c;
    Clock.now c -. t0
  in
  let cham_rt = restart "ChameleonDB" in
  let viper_rt = restart "Hybrid-Viper" in
  let restarts = [ ("ChameleonDB", cham_rt); ("Hybrid-Viper", viper_rt) ] in
  List.iter
    (fun (name, rt) ->
      metric ("restart/" ^ name ^ "/ns") rt;
      Table.add_row rtbl
        [ name; string_of_int n_keys; Table.cell_ns rt;
          Printf.sprintf "%.1fx" (rt /. Float.max 1.0 cham_rt) ])
    restarts;
  Table.print rtbl;
  let metrics = metrics () in
  let m b = List.assoc (Printf.sprintf "batch%d/x3/mops" b) metrics in
  pr
    "Shape check: at 3x the per-op-fence capacity, throughput climbs \
     monotonically@.";
  pr "with batch size (x%.2f at 4, x%.2f at 16, x%.2f at 64 vs batch 1) —@."
    (m 4 /. Float.max 0.001 (m 1))
    (m 16 /. Float.max 0.001 (m 1))
    (m 64 /. Float.max 0.001 (m 1));
  pr "one fence per group, with the knee where fences stop dominating; \
     server@.";
  pr "linger buys the same amortization without client cooperation, and \
     the@.";
  pr "hybrid pays for its DRAM index with a full-log-replay restart.@.@.";
  (* monotone up to the knee, >= 1.5x at batch 16, plateau tolerated
     past it *)
  { metrics;
    gates =
      [ ("monotone_to_knee", m 4 >= m 1 && m 16 >= m 4);
        ("batch16_ge_1.5x", m 16 >= 1.5 *. m 1);
        ("batch64_plateau", m 64 >= 0.9 *. m 16);
        ("restart_gap", viper_rt > cham_rt) ] }

(* ------------------------------------------------------------------ *)
(* Extension: DRAM read cache — zipfian theta x capacity sweep.        *)
(* ------------------------------------------------------------------ *)

(* The cache sits between the index and the value log (see DESIGN.md):
   a hit skips both the shard descent and the vlog read, so the win
   scales with skew.  Each cell is a fresh store so eviction state never
   leaks between configurations; the cache is warmed with half a sweep
   before measuring, as a steady-state server would be. *)
let cache_sweep scale =
  let thetas = [ 0.8; 0.99; 1.1 ] in
  let sizes_mb = [ 0; 16; 64 ] in
  let universe = scale.Stores.load_keys in
  let tbl =
    Table.create
      ~title:
        "Extension: DRAM read cache, zipfian get sweep (hit ratio vs \
         latency)"
      ~columns:
        [ ("theta", Table.Right); ("cache", Table.Right);
          ("hit ratio", Table.Right); ("get mean", Table.Right);
          ("get p99", Table.Right); ("cache DRAM", Table.Right) ]
  in
  let means = Hashtbl.create 16 in
  List.iter
    (fun theta ->
      List.iter
        (fun mb ->
          let cache_bytes = mb * 1024 * 1024 in
          let cfg = { (Stores.chameleon_cfg scale) with Config.cache_bytes } in
          let db = Chameleondb.Store.create ~cfg () in
          let store = Chameleondb.Store.store db in
          let load =
            Stores.load_unique ~store ~threads:1 ~start_at:0.0 ~n:universe
              ~vlen:scale.Stores.vlen
          in
          let z = Workload.Zipf.create ~theta ~n:universe () in
          let rng = Workload.Rng.create ~seed:7 in
          let next () =
            Types.Get
              (Workload.Keyspace.key_of_index
                 (Workload.Zipf.scrambled z rng ~universe))
          in
          let warm =
            Runner.run_ops ~store ~threads:1
              ~start_at:(Stores.settled_cursor ~store load)
              ~ops:(scale.Stores.sweep_ops / 2) ~next ()
          in
          let r =
            Runner.run_ops ~seed:7 ~store ~threads:1
              ~start_at:(Stores.settled_cursor ~store warm)
              ~ops:scale.Stores.sweep_ops ~next ()
          in
          let counter name =
            match List.assoc_opt name r.Runner.counters with
            | Some v -> v
            | None -> 0.0
          in
          let hits = counter "cache.hits" in
          let probes = hits +. counter "cache.misses" in
          let hit_ratio = if probes > 0.0 then hits /. probes else 0.0 in
          let mean = Histogram.mean r.Runner.get_latency in
          Hashtbl.replace means (theta, mb) mean;
          let cache_dram =
            match Chameleondb.Store.cache_stats db with
            | Some (used, _) -> Table.cell_bytes (float_of_int used)
            | None -> "-"
          in
          Table.add_row tbl
            [ Printf.sprintf "%.2f" theta;
              (if mb = 0 then "off" else Printf.sprintf "%d MB" mb);
              Printf.sprintf "%.1f%%" (100.0 *. hit_ratio);
              Table.cell_ns mean;
              Table.cell_ns (Histogram.percentile r.Runner.get_latency 99.0);
              cache_dram ])
        sizes_mb;
      Table.add_rule tbl)
    thetas;
  Table.print tbl;
  let base = Hashtbl.find means (0.99, 0) in
  let cached = Hashtbl.find means (0.99, 64) in
  pr
    "Shape check: at theta 0.99 a 64 MB cache must cut the get mean by \
     >= 1.5x@.";
  pr "(here %s -> %s, %.2fx); hotter skew widens the gap, cooler skew@."
    (Table.cell_ns base) (Table.cell_ns cached)
    (base /. Float.max 1.0 cached);
  pr "narrows it, and the off column reproduces the uncached path.@.@."

(* ------------------------------------------------------------------ *)
(* Extension: integrity — corruption rate x scrub budget sweep.        *)
(* ------------------------------------------------------------------ *)

(* Media faults (poisoned units and bit rot, alternating) are injected
   into a loaded store's log records, then a uniform get workload runs on
   the foreground clock while the scrubber runs periodic passes on a
   background clock at the cell's byte budget.  A poisoned 256 B unit
   takes adjacent records with it, so the detection target is the
   *measured* corrupt-record count after injection, not the injection
   count.  Reported per cell: scrub passes and simulated time until
   every corrupt record is detected, the contained fraction
   (quarantined / corrupt), the get p99 measured while scrubbing, and
   the largest single pass's scanned bytes — which must respect the
   budget up to one artifact (the documented target-not-cap semantics:
   a shard rebuild streams the live log, a run verification reads the
   whole run). *)
let integrity scale ~seed:_ =
  let universe = scale.Stores.load_keys in
  let rates = [ 0.001; 0.004 ] in
  let budgets = [ 64 * 1024; 256 * 1024; 1024 * 1024 ] in
  let tbl =
    Table.create ~title:"Integrity: media-fault rate x scrub byte budget"
      ~columns:
        [ ("rate", Table.Right); ("budget", Table.Right);
          ("injected", Table.Right); ("corrupt", Table.Right);
          ("passes", Table.Right);
          ("detect time", Table.Right); ("contained", Table.Right);
          ("get p99", Table.Right); ("max pass", Table.Right) ]
  in
  let budget_ok = ref true and all_detected = ref true in
  List.iter
    (fun rate ->
      List.iter
        (fun budget ->
          let cfg =
            { (Stores.chameleon_cfg scale) with
              Config.scrub_budget_bytes = budget }
          in
          let db = Chameleondb.Store.create ~cfg () in
          let store = Chameleondb.Store.store db in
          let load =
            Stores.load_unique ~store ~threads:1 ~start_at:0.0 ~n:universe
              ~vlen:scale.Stores.vlen
          in
          let start = Stores.settled_cursor ~store load in
          let clock = Clock.create ~at:start () in
          let bg = Clock.create ~at:start () in
          let vlog = Chameleondb.Store.vlog db in
          let dev = Chameleondb.Store.device db in
          let rng = Workload.Rng.create ~seed:(budget + universe) in
          let persisted = Kv_common.Vlog.persisted vlog in
          let nfaults =
            max 1 (int_of_float (rate *. float_of_int persisted))
          in
          let chosen = Hashtbl.create nfaults in
          while Hashtbl.length chosen < nfaults do
            let loc = Workload.Rng.int rng persisted in
            if not (Hashtbl.mem chosen loc) then begin
              Fault.Media.inject_log_fault vlog dev
                ~nth:(Hashtbl.length chosen) loc;
              Hashtbl.replace chosen loc ()
            end
          done;
          (* poison collateral: a 256 B unit spans ~6 records, so count
             what is actually corrupt — that is the detection target and
             the containment denominator *)
          let corrupt =
            let probe = Clock.create ~at:start () in
            let head = Kv_common.Vlog.head vlog in
            let n = ref 0 in
            for loc = head to persisted - 1 do
              if not (Kv_common.Vlog.intact vlog probe loc) then incr n
            done;
            max 1 !n
          in
          let detected = ref 0 and quarantined = ref 0 in
          let passes = ref 0 in
          let detect_time = ref nan in
          let max_pass = ref 0 in
          let scrub_pass () =
            (* overshoot bound: the budget plus the one artifact that can
               cross it (a rebuild streams the live log; a shard's runs
               are verified whole once its pass began) *)
            let slack =
              Kv_common.Vlog.live_bytes vlog
              + Array.fold_left
                  (fun acc sh ->
                    max acc
                      (List.fold_left
                         (fun a t -> a + Kv_common.Linear_table.byte_size t)
                         4096
                         (Chameleondb.Shard.persistent_tables sh)))
                  0 (Chameleondb.Store.shards db)
            in
            let r = Chameleondb.Store.scrub db bg ~budget_bytes:budget in
            incr passes;
            detected := !detected + r.Store_intf.sr_detected;
            quarantined := !quarantined + r.Store_intf.sr_quarantined;
            if r.Store_intf.sr_scanned_bytes > !max_pass then
              max_pass := r.Store_intf.sr_scanned_bytes;
            if r.Store_intf.sr_scanned_bytes > budget + slack then
              budget_ok := false;
            if Float.is_nan !detect_time && !detected >= corrupt then
              detect_time := Clock.now bg -. start
          in
          let gets = Histogram.create () in
          let ops = scale.Stores.sweep_ops in
          let per_pass = max 1 (ops / 20) in
          for op = 1 to ops do
            let key =
              Workload.Keyspace.key_of_index (Workload.Rng.int rng universe)
            in
            let t0 = Clock.now clock in
            ignore (Chameleondb.Store.read db clock key);
            Histogram.record gets (Clock.now clock -. t0);
            if op mod per_pass = 0 then scrub_pass ()
          done;
          (* drain: scrub until every injected fault has been detected *)
          let guard = ref 0 in
          while Float.is_nan !detect_time && !guard < 10_000 do
            incr guard;
            scrub_pass ()
          done;
          if Float.is_nan !detect_time then all_detected := false;
          Table.add_row tbl
            [ Printf.sprintf "%.2f%%" (100.0 *. rate);
              Table.cell_bytes (float_of_int budget);
              string_of_int nfaults;
              string_of_int corrupt;
              string_of_int !passes;
              (if Float.is_nan !detect_time then "never"
               else Table.cell_ns !detect_time);
              Printf.sprintf "%.0f%%"
                (100.0 *. float_of_int !quarantined /. float_of_int corrupt);
              Table.cell_ns (Histogram.percentile gets 99.0);
              Table.cell_bytes (float_of_int !max_pass) ])
        budgets;
      Table.add_rule tbl)
    rates;
  Table.print tbl;
  pr
    "Shape check: every corrupt record is detected (no \"never\" rows) and@.";
  pr
    "containment reaches ~100%%; larger budgets detect in less time;@.";
  pr "per-pass scanned bytes respect the budget up to one artifact (%s).@.@."
    (if !budget_ok then "holds" else "VIOLATED");
  { metrics = [];
    gates =
      [ ("all_detected", !all_detected); ("budget_respected", !budget_ok) ] }

(* ------------------------------------------------------------------ *)
(* Extension: cluster layer — scaling, failover, live migration.       *)
(* ------------------------------------------------------------------ *)

let cluster_timeline sc =
  let r = sc.Cluster_bench.sc_result in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "cluster [%s]: windowed latency timeline"
           sc.Cluster_bench.sc_label)
      ~columns:
        [ ("t (ms)", Table.Right); ("gets", Table.Right);
          ("puts", Table.Right); ("errs", Table.Right);
          ("get p99", Table.Right); ("put p99", Table.Right);
          ("event", Table.Left) ]
  in
  let nw = List.length r.Cluster.Run.r_windows in
  let stride = max 1 (nw / 20) in
  let marks = ref sc.Cluster_bench.sc_marks in
  List.iteri
    (fun i w ->
      let open Cluster.Run in
      (* annotate the first window at or after each scripted event *)
      let note = ref "" in
      (match !marks with
      | (at, label) :: rest
        when at < w.w_start +. (sc.Cluster_bench.sc_duration_ns /. 40.0) ->
          note := label;
          marks := rest
      | _ -> ());
      if i mod stride = 0 || !note <> "" then
        Table.add_row tbl
          [ Printf.sprintf "%.1f"
              ((w.w_start -. sc.Cluster_bench.sc_start) /. 1e6);
            string_of_int w.w_gets;
            string_of_int w.w_puts;
            string_of_int w.w_errs;
            Table.cell_ns (Histogram.percentile w.w_get_h 99.0);
            Table.cell_ns (Histogram.percentile w.w_put_h 99.0);
            !note ])
    r.Cluster.Run.r_windows;
  Table.print tbl

let cluster scale ~seed =
  let metric, metrics = recorder () in
  (* scaling curve: fresh cluster per node count, closed-loop 90/10 *)
  let counts = [ 1; 2; 4; 8 ] in
  let points = Cluster_bench.scaling ~seed scale counts in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf
           "cluster: closed-loop throughput vs node count (90/10 mix, 2-way \
            replication, write quorum = replicas, seed %d)"
           seed)
      ~columns:
        [ ("nodes", Table.Right); ("replicas", Table.Right);
          ("ops", Table.Right); ("Mops/s", Table.Right);
          ("vs 1 node", Table.Right); ("get p99", Table.Right);
          ("put p99", Table.Right) ]
  in
  let base =
    match points with p :: _ -> p.Cluster_bench.sp_mops | [] -> 1.0
  in
  List.iter
    (fun p ->
      let open Cluster_bench in
      let m name = metric (Printf.sprintf "scaling/%d/%s" p.sp_nodes name) in
      m "replicas" (float_of_int p.sp_replicas);
      m "ops" (float_of_int p.sp_ops);
      m "sim_ns" p.sp_sim_ns;
      m "mops" p.sp_mops;
      m "get_p99_ns" p.sp_get_p99;
      m "put_p99_ns" p.sp_put_p99;
      Table.add_row tbl
        [ string_of_int p.sp_nodes; string_of_int p.sp_replicas;
          string_of_int p.sp_ops; Table.cell_f p.sp_mops;
          Printf.sprintf "%.2fx" (p.sp_mops /. base);
          Table.cell_ns p.sp_get_p99; Table.cell_ns p.sp_put_p99 ])
    points;
  Table.print tbl;
  (* failover and rebalance, on a clean network and again under frame
     loss with the defensive policy and the partition-aware audit *)
  let scenarios loss =
    let tag = Printf.sprintf "loss%g/" loss in
    let record sc =
      let r = sc.Cluster_bench.sc_result in
      let router = sc.Cluster_bench.sc_setup.Cluster_bench.router in
      let m name v = metric (tag ^ sc.Cluster_bench.sc_label ^ "/" ^ name) v in
      let mi name v = m name (float_of_int v) in
      mi "ops" r.Cluster.Run.r_ops;
      mi "reqs" r.Cluster.Run.r_reqs;
      mi "errs" r.Cluster.Run.r_errs;
      m "offered_mops" sc.Cluster_bench.sc_rate_mops;
      m "capacity_mops" sc.Cluster_bench.sc_probe_mops;
      m "sim_ns" (r.Cluster.Run.r_end_ns -. sc.Cluster_bench.sc_start);
      m "get_p99_ns" (Histogram.percentile r.Cluster.Run.r_get_h 99.0);
      m "put_p99_ns" (Histogram.percentile r.Cluster.Run.r_put_h 99.0);
      mi "redirects" (Cluster.Router.redirects router);
      mi "misrouted" (Cluster.Router.misrouted router);
      mi "quorum_failures" (Cluster.Router.quorum_failures router);
      mi "checked" sc.Cluster_bench.sc_checked;
      mi "residue" sc.Cluster_bench.sc_residue;
      mi "mismatches" (List.length sc.Cluster_bench.sc_mismatches)
    in
    if loss > 0.0 then
      pr
        "Scenarios under %.3f frame loss (defensive policy, \
         partition-aware audit):@.@."
        loss;
    (* node kill + rejoin under open-loop load *)
    let fo = Cluster_bench.failover ~seed ~loss scale in
    record fo;
    let r = fo.Cluster_bench.sc_result in
    pr
      "Failover: 4 nodes, capacity %.2f Mops/s, offered %.2f Mops/s; kill \
       node%d at 30%%, rejoin at 55%%.@."
      fo.Cluster_bench.sc_probe_mops fo.Cluster_bench.sc_rate_mops
      Cluster_bench.victim;
    cluster_timeline fo;
    let router = fo.Cluster_bench.sc_setup.Cluster_bench.router in
    (match r.Cluster.Run.r_catchups with
    | cu :: _ ->
        pr
          "Catch-up: floor stamp %d; scanned %d peer entries, shipped %d, \
           applied %d; restart %s.@."
          (Cluster.Membership.floor cu)
          (Cluster.Membership.scanned cu)
          (Cluster.Membership.shipped cu)
          (Cluster.Membership.applied cu)
          (Table.cell_ns (Cluster.Membership.restart_ns cu))
    | [] -> pr "Catch-up: NONE COMPLETED (unexpected).@.");
    pr
      "Write availability: %d quorum failures while down (fail-fast, never \
       acked), %d reads degraded.@."
      (Cluster.Router.quorum_failures router)
      (Cluster.Router.degraded_reads router);
    pr "Divergence audit: %d replica reads, %d mismatches (%s).@.@."
      fo.Cluster_bench.sc_checked
      (List.length fo.Cluster_bench.sc_mismatches)
      (if fo.Cluster_bench.sc_mismatches = [] then "no acked write lost"
       else "ACKED WRITES LOST");
    (* live shard migration under open-loop load *)
    let rb = Cluster_bench.rebalance ~seed:(seed + 1) ~loss scale in
    record rb;
    let rb_router = rb.Cluster_bench.sc_setup.Cluster_bench.router in
    pr
      "Rebalance: 4 nodes, capacity %.2f Mops/s, offered %.2f Mops/s; %s.@."
      rb.Cluster_bench.sc_probe_mops rb.Cluster_bench.sc_rate_mops
      (match rb.Cluster_bench.sc_marks with
      | (_, label) :: _ -> label
      | [] -> "no migration");
    cluster_timeline rb;
    let migration = rb.Cluster_bench.sc_result.Cluster.Run.r_migrations in
    (match migration with
    | m :: _ ->
        pr "Migration: %d/%d keys copied, phase %s.@."
          (Cluster.Migration.copied m) (Cluster.Migration.total m)
          (match Cluster.Migration.phase m with
          | Cluster.Migration.Copying -> "copying (UNFINISHED)"
          | Cluster.Migration.Serving -> "serving"
          | Cluster.Migration.Cleaned -> "cleaned")
    | [] -> pr "Migration: NONE STARTED (unexpected).@.");
    pr "Routing: %d redirects (stale cache bounced via NotOwner), %d \
        misrouted (must be 0).@."
      (Cluster.Router.redirects rb_router)
      (Cluster.Router.misrouted rb_router);
    pr "Divergence audit: %d replica reads, %d mismatches.@.@."
      rb.Cluster_bench.sc_checked
      (List.length rb.Cluster_bench.sc_mismatches);
    List.map
      (fun (name, ok) -> (tag ^ name, ok))
      [ ("no_divergence",
         fo.Cluster_bench.sc_mismatches = []
         && rb.Cluster_bench.sc_mismatches = []);
        ("no_misroutes",
         Cluster.Router.misrouted router = 0
         && Cluster.Router.misrouted rb_router = 0);
        ("migration_redirected", Cluster.Router.redirects rb_router >= 1);
        ("catchup_done", r.Cluster.Run.r_catchups <> []);
        ("migration_cleaned",
         match migration with
         | [ m ] -> Cluster.Migration.phase m = Cluster.Migration.Cleaned
         | _ -> false) ]
  in
  let clean = scenarios 0.0 in
  let lossy = scenarios 0.01 in
  pr
    "Shape check: throughput scales with node count; p99 spikes at the@.";
  pr
    "kill and heals after catch-up; migration costs one redirect and@.";
  pr "zero misroutes; both audits end with zero mismatches.@.@.";
  { metrics = metrics (); gates = clean @ lossy }

(* ------------------------------------------------------------------ *)
(* Extension: network chaos — message-level fault injection, the       *)
(* defensive RPC policy, and the partition-aware consistency audit.    *)
(* ------------------------------------------------------------------ *)

let chaos scale ~seed =
  let open Cluster_bench in
  let metric, metrics = recorder () in
  (* loss x partition x hedge grid *)
  let cells = chaos_sweep ~seed scale in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf
           "chaos: loss x partition x hedge (5 nodes, 2 replicas, wq 2; \
            open-loop 90/10 at half capacity; partition over [35%%, 60%%) \
            of the phase; seed %d)"
           seed)
      ~columns:
        [ ("loss", Table.Right); ("part", Table.Left); ("hedge", Table.Left);
          ("avail", Table.Right); ("event avail", Table.Right);
          ("goodput", Table.Right); ("get p99", Table.Right);
          ("event p99", Table.Right); ("retries", Table.Right);
          ("hedges", Table.Right); ("dedup", Table.Right);
          ("residue", Table.Right); ("audit", Table.Left) ]
  in
  let record prefix c =
    let m name v = metric (prefix ^ name) v in
    let mi name v = m name (float_of_int v) in
    m "rate_mops" c.cc_rate_mops;
    mi "issued" c.cc_issued;
    mi "ok" c.cc_ok;
    m "availability" c.cc_availability;
    m "event_availability" c.cc_event_availability;
    m "goodput_mops" c.cc_goodput_mops;
    m "get_p99_ns" c.cc_get_p99;
    m "event_get_p99_ns" c.cc_event_get_p99;
    mi "retries" c.cc_retries;
    mi "timeouts" c.cc_timeouts;
    mi "hedges" c.cc_hedges;
    mi "hedge_wins" c.cc_hedge_wins;
    mi "late_acks" c.cc_late_acks;
    mi "routed_around" c.cc_routed_around;
    mi "suspicions" c.cc_suspicions;
    mi "dedup_hits" c.cc_dedup_hits;
    mi "checked" c.cc_checked;
    mi "residue" c.cc_residue;
    mi "mismatches" (List.length c.cc_mismatches);
    mi "reads_checked" c.cc_reads_checked;
    mi "violations" (List.length c.cc_violations)
  in
  List.iter
    (fun c ->
      record
        (Printf.sprintf "loss%g/%s/hedge-%s/" c.cc_loss
           (partition_name c.cc_partition)
           (if c.cc_hedge then "on" else "off"))
        c;
      Table.add_row tbl
        [ Printf.sprintf "%.3f" c.cc_loss; partition_name c.cc_partition;
          (if c.cc_hedge then "on" else "off");
          Printf.sprintf "%.4f" c.cc_availability;
          Printf.sprintf "%.4f" c.cc_event_availability;
          Table.cell_f c.cc_goodput_mops; Table.cell_ns c.cc_get_p99;
          Table.cell_ns c.cc_event_get_p99; string_of_int c.cc_retries;
          string_of_int c.cc_hedges; string_of_int c.cc_dedup_hits;
          string_of_int c.cc_residue;
          (if cell_clean c then "clean"
           else
             Printf.sprintf "%d LOST / %d VIOLATIONS"
               (List.length c.cc_mismatches)
               (List.length c.cc_violations)) ])
    cells;
  Table.print tbl;
  List.iter
    (fun c ->
      List.iter
        (fun m ->
          pr "  LOST [%s]: key %Ld node %d: expected %s, got %s@." c.cc_label
            m.Cluster.Run.mm_key m.Cluster.Run.mm_node
            m.Cluster.Run.mm_expected m.Cluster.Run.mm_got)
        (firstn 5 c.cc_mismatches);
      List.iter (fun v -> pr "  VIOLATION [%s]: %s@." c.cc_label v)
        (firstn 5 c.cc_violations))
    cells;
  (* fail-slow: hedging + detector vs neither, same offered rate *)
  let slow_off, slow_on = fail_slow_pair ~seed ~factor:10.0 scale in
  record "fail_slow/hedge-off/" slow_off;
  record "fail_slow/hedge-on/" slow_on;
  let ratio =
    if slow_on.cc_event_get_p99 > 0.0 then
      slow_off.cc_event_get_p99 /. slow_on.cc_event_get_p99
    else infinity
  in
  metric "fail_slow/ratio" ratio;
  pr
    "Fail-slow (node1 10x over the window, offered %.2f Mops/s): event \
     get p99 %s without hedging vs %s with hedging + route-around — \
     %.2fx better (%d hedges, %d wins, %d suspicions, %d routed \
     around).@."
    slow_on.cc_rate_mops
    (Table.cell_ns slow_off.cc_event_get_p99)
    (Table.cell_ns slow_on.cc_event_get_p99)
    ratio slow_on.cc_hedges slow_on.cc_hedge_wins slow_on.cc_suspicions
    slow_on.cc_routed_around;
  (* zero-fault overhead of the defensive machinery *)
  let base, defended = overhead_pair ~seed:(seed + 6) scale in
  let overhead = 1.0 -. (defended /. Float.max base 1e-9) in
  metric "overhead/default_mops" base;
  metric "overhead/defensive_mops" defended;
  metric "overhead/fraction" overhead;
  pr
    "Zero-fault overhead: %.2f Mops/s default policy vs %.2f Mops/s \
     defensive + empty injector (%.1f%%).@."
    base defended (100.0 *. overhead);
  pr "@.";
  pr
    "Shape check: every cell's audit is clean (no acked write lost, no@.";
  pr
    "stale or phantom read); retries and dedup absorb loss; hedging@.";
  pr
    "cuts the fail-slow event p99 by >= 2x; the defensive machinery@.";
  pr "costs < 5%% on a clean network.@.@.";
  { metrics = metrics ();
    gates =
      [ ("sweep_clean", List.for_all cell_clean cells);
        ("fail_slow_clean", cell_clean slow_off && cell_clean slow_on);
        ("hedge_ge_2x", ratio >= 2.0);
        ("overhead_le_5pct", overhead <= 0.05) ] }

(* ------------------------------------------------------------------ *)
(* Extension: ordered range scans — throughput vs scan length plus a   *)
(* DRAM-oracle audit across flush / ABI dump / merge / GC / crash.     *)
(* ------------------------------------------------------------------ *)

let scan_lengths = [ 10; 50; 100; 250; 500 ]

(* Drive one ChameleonDB instance through every structural transition and
   compare [Store.scan] against a DRAM set oracle after each one.  Returns
   (checks, mismatches). *)
let scan_audit ~seed scale =
  let db = Chameleondb.Store.create ~cfg:(Stores.chameleon_cfg scale) () in
  let clock = Clock.create () in
  let oracle : (Types.key, unit) Hashtbl.t = Hashtbl.create 4096 in
  let rng = Workload.Rng.create ~seed in
  let universe = 4_096 in
  let key i = Workload.Keyspace.key_of_index i in
  let put i =
    Chameleondb.Store.write db clock (key i) (Store_intf.Sized 8);
    Hashtbl.replace oracle (key i) ()
  in
  let del i =
    Chameleondb.Store.delete db clock (key i);
    Hashtbl.remove oracle (key i)
  in
  let checks = ref 0 and mismatches = ref 0 in
  let verify phase ~start ~limit =
    incr checks;
    let want =
      Hashtbl.fold (fun k () acc -> k :: acc) oracle []
      |> List.filter (fun k -> Types.key_compare k start >= 0)
      |> List.sort Types.key_compare |> firstn limit
    in
    let got =
      List.map fst (Chameleondb.Store.scan db clock ~start ~limit)
    in
    if got <> want then begin
      incr mismatches;
      pr "  AUDIT MISMATCH [%s] seed %d start %Lu limit %d: want %d got %d@."
        phase seed start limit (List.length want) (List.length got)
    end
  in
  let audit phase =
    verify phase ~start:0L ~limit:(2 * universe);
    verify phase ~start:(key (universe / 3)) ~limit:64;
    verify phase ~start:(key (universe - (universe / 8))) ~limit:256;
    verify phase
      ~start:(key (Workload.Rng.int rng universe))
      ~limit:(1 + Workload.Rng.int rng 128)
  in
  (* memtable only *)
  for i = 0 to (universe / 4) - 1 do put i done;
  audit "memtable";
  (* flushed runs *)
  Chameleondb.Store.flush_all db clock;
  audit "flush";
  (* more writes: ABI dumps and merges pending, then drained *)
  for i = universe / 4 to (universe / 2) - 1 do put i done;
  for _ = 1 to universe / 8 do put (Workload.Rng.int rng (universe / 2)) done;
  audit "dump-pending";
  Chameleondb.Store.wait_background db clock;
  audit "merged";
  (* rest of the universe plus deletes, through another merge round *)
  for i = universe / 2 to universe - 1 do put i done;
  for i = 0 to universe - 1 do if i mod 5 = 0 then del i done;
  Chameleondb.Store.flush_all db clock;
  Chameleondb.Store.wait_background db clock;
  audit "delete+merge";
  (* value-log GC relocates live entries *)
  ignore (Chameleondb.Store.gc db clock ());
  audit "gc";
  (* crash and recover from pmem state *)
  Chameleondb.Store.flush_all db clock;
  Chameleondb.Store.crash db;
  ignore (Chameleondb.Store.recover db clock);
  audit "crash+recover";
  (!checks, !mismatches)

let scan_exp scale ~seed:_ =
  let metric, metrics = recorder () in
  let specs =
    List.map (Stores.find scale)
      [ "ChameleonDB"; "Pmem-LSM-PinK"; "Pmem-LSM-NF"; "Pmem-LSM-F" ]
  in
  let tbl =
    Table.create
      ~title:"scan: ordered range-scan throughput vs scan length (8 threads, \
              zipfian start keys)"
      ~columns:
        [ ("store", Table.Left); ("len", Table.Right);
          ("scans", Table.Right); ("kscans/s", Table.Right);
          ("Mkeys/s", Table.Right); ("p50", Table.Right);
          ("p99", Table.Right) ]
  in
  let universe = scale.Stores.load_keys in
  List.iter
    (fun spec ->
      let store = spec.Stores.make () in
      let load =
        Stores.load_unique ~store ~threads:8 ~start_at:0.0 ~n:universe
          ~vlen:scale.Stores.vlen
      in
      let cursor = ref (Stores.settled_cursor ~store load) in
      List.iter
        (fun len ->
          let rng = Workload.Rng.create ~seed:((7 * len) + 1) in
          let zipf = Workload.Zipf.create ~n:universe () in
          let next () =
            let ix = Workload.Zipf.scrambled zipf rng ~universe in
            Types.Scan (Workload.Keyspace.key_of_index ix, len)
          in
          let ops = max 400 (scale.Stores.sweep_ops / (4 * len)) in
          let r =
            Runner.run_ops ~store ~threads:8 ~start_at:!cursor ~ops ~next ()
          in
          cursor := r.Runner.end_ns;
          let ns = Runner.sim_ns r in
          Table.add_row tbl
            [ spec.Stores.name; string_of_int len; string_of_int ops;
              Table.cell_f (float_of_int ops /. ns *. 1e6);
              Table.cell_f (float_of_int (ops * len) /. ns *. 1e3);
              Table.cell_ns
                (Histogram.percentile r.Runner.scan_latency 50.0);
              Table.cell_ns
                (Histogram.percentile r.Runner.scan_latency 99.0) ])
        scan_lengths)
    specs;
  Table.print tbl;
  pr "Scan audit: DRAM set oracle vs Store.scan after every structural@.";
  pr "transition (memtable, flush, ABI dump, merge, deletes, GC, crash).@.";
  let mismatch_counts =
    List.map
      (fun seed ->
        let checks, mismatches = scan_audit ~seed scale in
        metric (Printf.sprintf "audit/seed%d/checks" seed)
          (float_of_int checks);
        metric (Printf.sprintf "audit/seed%d/mismatches" seed)
          (float_of_int mismatches);
        pr "  seed %3d: %d ordered-scan checks, %d mismatches%s@." seed checks
          mismatches
          (if mismatches = 0 then "" else "  << ORDER VIOLATION");
        mismatches)
      [ 1; 11; 101 ]
  in
  pr "Shape check: per-scan cost grows sublinearly with length (seek@.";
  pr "dominates short scans); ChameleonDB tracks Pmem-LSM within a small@.";
  pr "factor since both serve scans from sorted runs; audit shows 0@.";
  pr "mismatches at every seed.@.@.";
  { metrics = metrics ();
    gates = [ ("audit_clean", List.for_all (( = ) 0) mismatch_counts) ] }

(* ------------------------------------------------------------------ *)
(* mph: perfect-hash last level — one Pmem read per get.               *)
(* ------------------------------------------------------------------ *)

let mph_exp scale ~seed =
  let metric, metrics = recorder () in
  let universe = scale.Stores.load_keys in
  let specs =
    [ Stores.chameleon ~f:(fun cfg -> { cfg with Config.seed }) scale;
      Stores.chameleon ~name:"ChameleonDB-MPH"
        ~f:(fun cfg -> { cfg with Config.seed; index_kind = Config.Mph })
        scale;
      Stores.find scale "Pmem-LSM-F" ]
  in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf
           "mph: last-level index — uniform gets, hit and miss mixes (8 \
            threads, seed %d)"
           seed)
      ~columns:
        [ ("store", Table.Left); ("mix", Table.Left);
          ("get Mops/s", Table.Right); ("p50", Table.Right);
          ("p99", Table.Right); ("reads/get", Table.Right);
          ("bloom/get", Table.Right); ("DRAM B/key", Table.Right) ]
  in
  Obs.Attribution.enable ();
  let built = ref [] and attr = ref [] in
  List.iter
    (fun spec ->
      let name = spec.Stores.name in
      let store = spec.Stores.make () in
      Obs.Attribution.reset ();
      let cb = Obs.Counters.snapshot () in
      let load =
        Stores.load_unique ~store ~threads:8 ~start_at:0.0 ~n:universe
          ~vlen:scale.Stores.vlen
      in
      let cdelta =
        Obs.Counters.diff_snapshots ~after:(Obs.Counters.snapshot ())
          ~before:cb
      in
      let c n = Option.value ~default:0.0 (List.assoc_opt n cdelta) in
      let attempts_per_key =
        c "mph.build_attempts" /. Float.max 1.0 (c "mph.build_keys")
      in
      metric (name ^ "/mph_builds") (c "mph.builds");
      metric (name ^ "/mph_build_keys") (c "mph.build_keys");
      metric (name ^ "/mph_attempts_per_key") attempts_per_key;
      metric (name ^ "/mph_restarts") (c "mph.build_restarts");
      if c "mph.builds" > 0.0 then
        built :=
          !built
          @ [ Printf.sprintf
                "%s construction: %.0f MPH builds over %.0f keys, %.2f \
                 displacement attempts/key, %.0f seed restarts"
                name (c "mph.builds") (c "mph.build_keys") attempts_per_key
                (c "mph.build_restarts") ];
      let cursor = ref (Stores.settled_cursor ~store load) in
      let dram_per_key =
        Store_intf.dram_footprint store /. float_of_int universe
      in
      metric (name ^ "/dram_bytes_per_key") dram_per_key;
      let sweep mix next =
        let r =
          Runner.run_ops ~store ~threads:8 ~start_at:!cursor
            ~ops:scale.Stores.sweep_ops ~next ()
        in
        cursor := Stores.settled_cursor ~store r;
        let ops = float_of_int r.Runner.ops in
        let cnt n =
          Option.value ~default:0.0 (List.assoc_opt n r.Runner.counters)
        in
        let p q = Histogram.percentile r.Runner.get_latency q in
        let reads =
          float_of_int r.Runner.device_delta.Stats.read_ops /. ops
        in
        let cell = name ^ "/" ^ mix ^ "/" in
        metric (cell ^ "mops") (Runner.throughput_mops r);
        metric (cell ^ "p50_ns") (p 50.0);
        metric (cell ^ "p99_ns") (p 99.0);
        metric (cell ^ "reads_per_get") reads;
        metric (cell ^ "bloom_per_get") (cnt "bloom.probes" /. ops);
        Table.add_row tbl
          [ name; mix;
            Table.cell_f (Runner.throughput_mops r);
            Table.cell_ns (p 50.0); Table.cell_ns (p 99.0);
            Table.cell_f reads;
            Table.cell_f (cnt "bloom.probes" /. ops);
            Table.cell_f dram_per_key ];
        r
      in
      let hit = sweep "hit" (Stores.uniform_get_gen ~seed ~universe) in
      let rng = Workload.Rng.create ~seed:(seed + 1) in
      let _miss =
        sweep "miss" (fun () ->
            Types.Get
              (Workload.Keyspace.key_of_index
                 (universe + Workload.Rng.int rng universe)))
      in
      attr := !attr @ [ Runner.attribution_table ~name hit ])
    specs;
  Obs.Attribution.disable ();
  Table.print tbl;
  List.iter (fun line -> pr "%s@." line) !built;
  pr "@.";
  List.iter (fun t -> pr "%s@." t) !attr;
  pr "Shape check: the MPH variant answers a last-level hit with one index@.";
  pr "device read (reads/get ~2 = slot + log, vs fence-probe chains), needs@.";
  pr "no Bloom checks at any level, and keeps only the 4 B/bucket@.";
  pr "displacement array in DRAM; misses stay safe — the probed slot's key@.";
  pr "mismatch answers Absent, never a wrong value.@.@.";
  let metrics = metrics () in
  let v name = List.assoc name metrics in
  { metrics;
    gates =
      [ ("mph_built", v "ChameleonDB-MPH/mph_builds" > 0.0);
        ("mph_hit_p99_le_bloom",
         v "ChameleonDB-MPH/hit/p99_ns" <= v "ChameleonDB/hit/p99_ns");
        ("mph_hit_reads_lt_4", v "ChameleonDB-MPH/hit/reads_per_get" < 4.0)
      ] }

(* ------------------------------------------------------------------ *)
(* Audits: the crash-point and media-fault sweeps over every store.   *)
(* ------------------------------------------------------------------ *)

(* One audited store: its counts become [label/count] metrics and a table
   row; returns its [label/no_violations] gate. *)
let audit_row ~record tbl label counts ok =
  List.iter (fun (m, n) -> record (label ^ "/" ^ m) (float_of_int n)) counts;
  Table.add_row tbl
    ((label :: List.map (fun (_, n) -> string_of_int n) counts)
    @ [ (if ok then "ok" else "FAIL") ]);
  (label ^ "/no_violations", ok)

let crash_sweep targets scale ~seed =
  let record, metrics = recorder () in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf
           "crash sweep: seed %d, first/middle/last event per site, torn \
            256B writes (+N MiB = with an N MiB read cache)"
           seed)
      ~columns:
        [ ("store", Table.Left); ("cases", Table.Right);
          ("crashes fired", Table.Right); ("recovery crashes", Table.Right);
          ("violations", Table.Right); ("verdict", Table.Left) ]
  in
  let gates =
    List.map
      (fun (spec, cache_mb) ->
        let v =
          Fault.Sweep.run_store ~name:spec.Stores.name ~make:spec.Stores.make
            ~seeds:[ seed ] ()
        in
        List.iter
          (fun f ->
            pr "repro: %s@."
              (Fault.Sweep.repro_hint ~quick:(scale = Stores.quick) ~cache_mb
                 f.Fault.Sweep.f_case);
            List.iter (pr "    %s@.") f.Fault.Sweep.f_violations)
          v.Fault.Sweep.v_failures;
        audit_row ~record tbl
          (if cache_mb = 0 then spec.Stores.name
           else Printf.sprintf "%s+%dMiB" spec.Stores.name cache_mb)
          [ ("cases", v.Fault.Sweep.v_cases);
            ("crashes_fired", v.Fault.Sweep.v_fired);
            ("recovery_crashes", v.Fault.Sweep.v_recovery_crashes);
            ( "violations",
              List.fold_left
                (fun a f -> a + List.length f.Fault.Sweep.f_violations)
                0 v.Fault.Sweep.v_failures ) ]
          (Fault.Sweep.passed v))
      targets
  in
  Table.print tbl;
  { metrics = metrics (); gates }

(* Every store, plus the two ChameleonDB variants with a 16 MiB cache: a
   stale cache entry surviving a crash shows up as a resurrection. *)
let crash_targets scale =
  List.map (fun spec -> (spec, 0)) (Stores.all scale)
  @ List.map
      (fun name -> (Stores.find ~cache_bytes:(16 lsl 20) scale name, 16))
      [ "ChameleonDB"; "ChameleonDB-MPH" ]

let media_sweep scale ~seed =
  let record, metrics = recorder () in
  let tbl =
    Table.create
      ~title:(Printf.sprintf "media-fault sweep: seed %d, 12 faults" seed)
      ~columns:
        [ ("store", Table.Left); ("injected", Table.Right);
          ("corrupt reads", Table.Right); ("scrub detected", Table.Right);
          ("recovered", Table.Right); ("violations", Table.Right);
          ("verdict", Table.Left) ]
  in
  let gates =
    List.map
      (fun spec ->
        let v =
          Fault.Media.run_store ~make:spec.Stores.make ~seeds:[ seed ] ()
        in
        List.iter (pr "    %s@.") v.Fault.Media.m_violations;
        audit_row ~record tbl spec.Stores.name
          [ ("injected", v.Fault.Media.m_injected);
            ("corrupt_reads", v.Fault.Media.m_corrupt_reads);
            ("scrub_detected", v.Fault.Media.m_scrub_detected);
            ("recovered", v.Fault.Media.m_recovered);
            ("violations", List.length v.Fault.Media.m_violations) ]
          (Fault.Media.passed v))
      (Stores.all scale)
  in
  Table.print tbl;
  (* artifact legs: table runs and manifest floors, ChameleonDB only *)
  let vs = Fault.Media.run_chameleon_artifacts () in
  record "artifacts/violations" (float_of_int (List.length vs));
  pr "artifact legs (table runs, manifest floors): %s@."
    (if vs = [] then "ok" else "FAIL");
  List.iter (pr "    %s@.") vs;
  { metrics = metrics ();
    gates = gates @ [ ("artifacts/no_violations", vs = []) ] }

(* ------------------------------------------------------------------ *)
(* Registry.                                                           *)
(* ------------------------------------------------------------------ *)

(* Experiments that use fixed seeds and report no metrics or gates. *)
let fixed f scale ~seed:_ =
  f scale;
  { metrics = []; gates = [] }

let all =
  [ { id = "tab1"; title = "Table 1: configuration"; run = fixed tab1 };
    { id = "tab5"; title = "Table 5: YCSB workload definitions";
      run = fixed tab5 };
    { id = "fig1"; title = "Fig 1: raw write throughput vs access size";
      run = fixed fig1 };
    { id = "fig2"; title = "Fig 2: multi-level read latency by device";
      run = fixed fig2 };
    { id = "fig10"; title = "Fig 10: put throughput vs threads";
      run = fixed fig10 };
    { id = "fig11"; title = "Fig 11 + Table 2: put latency CDF and tails";
      run = fixed fig11 };
    { id = "fig12"; title = "Fig 12: get throughput vs threads";
      run = fixed fig12 };
    { id = "fig13"; title = "Fig 13 + Table 3: get latency CDF and tails";
      run = fixed fig13 };
    { id = "tab4"; title = "Table 4: overall comparison"; run = fixed tab4 };
    { id = "fig3"; title = "Fig 3: normalized four-measure comparison";
      run = fixed fig3 };
    { id = "fig14"; title = "Fig 14: YCSB workloads"; run = fixed fig14 };
    { id = "fig15"; title = "Fig 15: Direct Compaction and WIM";
      run = fixed fig15 };
    { id = "fig16"; title = "Fig 16: put bursts and Get-Protect Mode";
      run = fixed fig16 };
    { id = "fig17"; title = "Fig 17: vs NoveLSM and MatrixKV";
      run = fixed fig17 };
    { id = "wa"; title = "Write-amplification formula check";
      run = fixed wa_check };
    { id = "abl-abi"; title = "Ablation: ABI disabled"; run = fixed abl_abi };
    { id = "abl-shards"; title = "Ablation: randomized load factors";
      run = fixed abl_shards };
    { id = "abl-bloom"; title = "Ablation: Bloom bits-per-key sweep";
      run = fixed abl_bloom };
    { id = "abl-gc"; title = "Extension: value-log garbage collection";
      run = fixed abl_gc };
    { id = "abl-ratio"; title = "Ablation: between-level ratio";
      run = fixed abl_ratio };
    { id = "abl-batch"; title = "Ablation: log batch size";
      run = fixed abl_batch };
    { id = "abl-device"; title = "Ablation: design fit across devices";
      run = fixed abl_device };
    { id = "service";
      title = "Service: open-loop bursts through the serving layer";
      run = fixed service };
    { id = "batch";
      title = "Extension: end-to-end write batching and group commit";
      run = batch_exp };
    { id = "cache";
      title = "Extension: DRAM read cache sweep (zipfian theta x size)";
      run = fixed cache_sweep };
    { id = "integrity";
      title = "Extension: media-fault rate x scrub budget sweep";
      run = integrity };
    { id = "cluster";
      title = "Extension: cluster scaling, failover and live migration";
      run = cluster };
    { id = "chaos";
      title = "Extension: network chaos — fault injection, defensive RPC, \
               partition-aware audit";
      run = chaos };
    { id = "scan";
      title = "Extension: ordered range scans — throughput vs length + \
               oracle audit";
      run = scan_exp };
    { id = "mph";
      title = "Extension: perfect-hash last level — one Pmem read per get";
      run = mph_exp };
    { id = "crash";
      title = "Audit: crash-point sweep over every store and fault site";
      run = (fun scale -> crash_sweep (crash_targets scale) scale) };
    { id = "media";
      title = "Audit: media-fault sweep over every store and artifact";
      run = media_sweep } ]

let ids () = List.map (fun e -> e.id) all

let passed o = List.for_all snd o.gates

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Shortest decimal that reads back to the same float; JSON has no
   infinities or NaN, so those become null. *)
let json_float x =
  if not (Float.is_finite x) then "null"
  else
    let s = Printf.sprintf "%.15g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

let add_object b fmt fields =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      Printf.bprintf b "%s\n     %s: %s"
        (if i = 0 then "" else ",")
        (json_string k) (fmt v))
    fields;
  Buffer.add_string b (if fields = [] then "}" else "\n   }")

let write_records path records =
  let b = Buffer.create 4096 in
  Buffer.add_char b '[';
  List.iteri
    (fun i (r : record) ->
      Printf.bprintf b
        "%s\n  {\"id\": %s, \"seed\": %s, \"quick\": %b, \"wall_s\": %s,\n\
        \   \"metrics\": "
        (if i = 0 then "" else ",")
        (json_string r.id)
        (match r.seed with Some s -> string_of_int s | None -> "null")
        r.quick (json_float r.wall_s);
      add_object b json_float r.outcome.metrics;
      Buffer.add_string b ",\n   \"gates\": ";
      add_object b string_of_bool r.outcome.gates;
      Printf.bprintf b ",\n   \"pass\": %b}" (passed r.outcome))
    records;
  Buffer.add_string b "\n]\n";
  try
    Out_channel.with_open_text path (fun oc -> Buffer.output_buffer oc b);
    Printf.printf "wrote %s\n%!" path
  with Sys_error msg -> Printf.eprintf "cannot write bench JSON: %s\n%!" msg

let run_ids ?(exps = all) ?(seed = 1) ?bench_json ~scale requested =
  List.iter
    (fun id ->
      if not (List.exists (fun (e : exp) -> e.id = id) exps) then
        invalid_arg ("unknown experiment id: " ^ id))
    requested;
  let records =
    List.filter_map
      (fun e ->
        if requested = [] || List.mem e.id requested then begin
          pr "@.### %s — %s ###@.@." e.id e.title;
          let t0 = Unix.gettimeofday () in
          let outcome = e.run scale ~seed in
          let wall_s = Unix.gettimeofday () -. t0 in
          if outcome.gates <> [] then
            pr "Gates: %s@.@."
              (String.concat ", "
                 (List.map
                    (fun (g, ok) -> g ^ (if ok then " ok" else " FAILED"))
                    outcome.gates));
          Some
            { id = e.id; seed = Some seed; quick = (scale = Stores.quick);
              wall_s; outcome }
        end
        else None)
      exps
  in
  Option.iter (fun path -> write_records path records) bench_json;
  List.concat_map
    (fun (r : record) ->
      List.filter_map
        (fun (g, ok) -> if ok then None else Some (r.id ^ "/" ^ g))
        r.outcome.gates)
    records
