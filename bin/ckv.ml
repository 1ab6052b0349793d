(* ckv — command-line driver for the ChameleonDB reproduction.

   ckv load  --store ChameleonDB --keys 200000 --threads 8
   ckv ycsb  --mix B --ops 50000 --store all
   ckv bench fig10 tab4 --quick
   ckv bench mph --quick --seed 11 --bench-json BENCH_mph.json
   ckv list *)

open Cmdliner
module Store_intf = Kv_common.Store_intf
module Table = Metrics.Table_fmt
module Proto = Service.Proto

let scale_of_quick quick =
  if quick then Harness.Stores.quick else Harness.Stores.default

let store_names scale =
  List.map (fun s -> s.Harness.Stores.name) (Harness.Stores.all scale)

let resolve_stores ?cache_bytes scale name =
  if name = "all" then Harness.Stores.all ?cache_bytes scale
  else [ Harness.Stores.find ?cache_bytes scale name ]

(* ------------------------------- load command ---------------------------- *)

let run_load store keys threads quick =
  let scale = scale_of_quick quick in
  let tbl =
    Table.create
      ~title:(Printf.sprintf "load %d unique keys, %d threads" keys threads)
      ~columns:
        [ ("store", Table.Left); ("Mops/s", Table.Right);
          ("put p50", Table.Right); ("put p99.9", Table.Right);
          ("WA", Table.Right); ("DRAM", Table.Right) ]
  in
  List.iter
    (fun spec ->
      let handle = spec.Harness.Stores.make () in
      let before =
        Pmem_sim.Stats.copy (Pmem_sim.Device.stats (Store_intf.device handle))
      in
      let r =
        Harness.Stores.load_unique ~store:handle ~threads ~start_at:0.0 ~n:keys
          ~vlen:8
      in
      let delta =
        Pmem_sim.Stats.diff
          ~after:(Pmem_sim.Device.stats (Store_intf.device handle))
          ~before
      in
      Table.add_row tbl
        [ spec.Harness.Stores.name;
          Table.cell_f (Harness.Stores.sustained_mops ~store:handle r);
          Table.cell_ns
            (Metrics.Histogram.percentile r.Harness.Runner.put_latency 50.0);
          Table.cell_ns
            (Metrics.Histogram.percentile r.Harness.Runner.put_latency 99.9);
          Table.cell_f
            (delta.Pmem_sim.Stats.media_write_bytes
            /. float_of_int (keys * 24));
          Table.cell_bytes (Store_intf.dram_footprint handle) ])
    (resolve_stores scale store);
  Table.print tbl

(* ------------------------------- ycsb command ---------------------------- *)

let run_ycsb store mix ops threads seed trace_file cache_mb quick bench_json =
  let scale = scale_of_quick quick in
  let wall_t0 = Unix.gettimeofday () in
  let cache_bytes = cache_mb * 1024 * 1024 in
  let mix =
    match String.uppercase_ascii mix with
    | "LOAD" -> Workload.Ycsb.Load
    | "A" -> Workload.Ycsb.A
    | "B" -> Workload.Ycsb.B
    | "C" -> Workload.Ycsb.C
    | "D" -> Workload.Ycsb.D
    | "E" -> Workload.Ycsb.E
    | "F" -> Workload.Ycsb.F
    | s -> failwith ("unknown YCSB mix: " ^ s)
  in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "%s: %d requests, %d threads over %d keys"
           (Workload.Ycsb.name mix) ops threads scale.Harness.Stores.load_keys)
      ~columns:
        [ ("store", Table.Left); ("Mops/s", Table.Right);
          ("p50", Table.Right); ("p99", Table.Right) ]
  in
  let specs = resolve_stores ~cache_bytes scale store in
  (* with several stores, each gets its own trace file: NAME-<file> *)
  let trace_path spec =
    match trace_file with
    | None -> None
    | Some path when List.length specs = 1 -> Some path
    | Some path ->
      Some
        (Filename.concat
           (Filename.dirname path)
           (spec.Harness.Stores.name ^ "-" ^ Filename.basename path))
  in
  Obs.Attribution.enable ();
  let results =
    List.map
      (fun spec ->
        (* fresh counters and attribution per store *)
        Obs.Counters.reset_all ();
        Obs.Attribution.reset ();
        let tracing = trace_path spec <> None in
        if tracing && mix = Workload.Ycsb.Load then Obs.Trace.enable ();
        let handle = spec.Harness.Stores.make () in
        let load =
          Harness.Stores.load_unique ~store:handle ~threads ~start_at:0.0
            ~n:scale.Harness.Stores.load_keys ~vlen:8
        in
        let r =
          match mix with
          | Workload.Ycsb.Load -> load
          | _ ->
            if tracing then Obs.Trace.enable ();
            let gen =
              Workload.Ycsb.create ?seed ~mix
                ~loaded:scale.Harness.Stores.load_keys ()
            in
            Harness.Runner.run_ops ~store:handle ~threads
              ~start_at:(Harness.Stores.settled_cursor ~store:handle load)
              ~ops
              ~next:(fun () -> Workload.Ycsb.next gen)
              ()
        in
        (match trace_path spec with
        | Some path ->
          (try
             Obs.Export.write_chrome_trace path;
             Printf.printf "wrote %d trace events to %s (%d dropped)\n"
               (Obs.Trace.length ()) path (Obs.Trace.dropped ())
           with Sys_error msg ->
             Printf.eprintf "ckv: cannot write trace: %s\n" msg);
          Obs.Trace.disable ()
        | None -> ());
        Table.add_row tbl
          [ spec.Harness.Stores.name;
            Table.cell_f (Harness.Runner.throughput_mops r);
            Table.cell_ns
              (Metrics.Histogram.percentile r.Harness.Runner.latency 50.0);
            Table.cell_ns
              (Metrics.Histogram.percentile r.Harness.Runner.latency 99.0) ];
        (spec.Harness.Stores.name, r))
      specs
  in
  Table.print tbl;
  List.iter
    (fun (name, r) ->
      print_string (Harness.Runner.attribution_table ~name r);
      print_newline ())
    results;
  Option.iter
    (fun path ->
      let metrics =
        List.concat_map
          (fun (name, r) ->
            let p q =
              Metrics.Histogram.percentile r.Harness.Runner.latency q
            in
            [ (name ^ "/ops", float_of_int r.Harness.Runner.ops);
              (name ^ "/sim_ns", Harness.Runner.sim_ns r);
              (name ^ "/mops", Harness.Runner.throughput_mops r);
              (name ^ "/p50_ns", p 50.0);
              (name ^ "/p99_ns", p 99.0) ])
          results
      in
      Harness.Experiments.write_records path
        [ { Harness.Experiments.id =
              String.lowercase_ascii (Workload.Ycsb.name mix);
            seed; quick;
            wall_s = Unix.gettimeofday () -. wall_t0;
            outcome = { metrics; gates = [] } } ])
    bench_json

(* ----------------------------- inspect command --------------------------- *)

let run_inspect keys quick =
  let scale = scale_of_quick quick in
  let cfg = Harness.Stores.chameleon_cfg scale in
  let db = Chameleondb.Store.create ~cfg () in
  let clock = Pmem_sim.Clock.create () in
  for i = 0 to keys - 1 do
    Chameleondb.Store.write db clock
      (Workload.Keyspace.key_of_index i)
      (Kv_common.Store_intf.Sized 8)
  done;
  Printf.printf "Loaded %d keys in %.2f simulated ms.\n\n" keys
    (Pmem_sim.Clock.now clock /. 1e6);
  print_string (Chameleondb.Report.to_string db)

(* ------------------------------ trace command ---------------------------- *)

let parse_mix s =
  match String.uppercase_ascii s with
  | "LOAD" -> Workload.Ycsb.Load
  | "A" -> Workload.Ycsb.A
  | "B" -> Workload.Ycsb.B
  | "C" -> Workload.Ycsb.C
  | "D" -> Workload.Ycsb.D
  | "F" -> Workload.Ycsb.F
  | other -> failwith ("unknown YCSB mix: " ^ other)

let run_trace record replay mix ops store quick =
  let scale = scale_of_quick quick in
  match (record, replay) with
  | Some path, None ->
    let gen =
      Workload.Ycsb.create ~mix:(parse_mix mix)
        ~loaded:scale.Harness.Stores.load_keys ()
    in
    let t =
      Workload.Trace.record ~n:ops ~gen:(fun () -> Workload.Ycsb.next gen)
    in
    Workload.Trace.save t path;
    Printf.printf "recorded %d %s operations to %s\n" ops mix path
  | None, Some path ->
    let t = Workload.Trace.load path in
    List.iter
      (fun spec ->
        let handle = spec.Harness.Stores.make () in
        let load =
          Harness.Stores.load_unique ~store:handle ~threads:8 ~start_at:0.0
            ~n:scale.Harness.Stores.load_keys ~vlen:8
        in
        let next = Workload.Trace.replayer t in
        let gen ~thread:_ ~now:_ = next () in
        let r =
          Harness.Runner.run ~store:handle ~threads:8
            ~start_at:(Harness.Stores.settled_cursor ~store:handle load)
            ~gen ()
        in
        Printf.printf "%-16s replayed %d ops: %.2f Mops/s, p99 %s\n"
          spec.Harness.Stores.name r.Harness.Runner.ops
          (Harness.Runner.throughput_mops r)
          (Table.cell_ns
             (Metrics.Histogram.percentile r.Harness.Runner.latency 99.0)))
      (resolve_stores scale store)
  | Some _, Some _ | None, None ->
    prerr_endline "trace: pass exactly one of --record FILE or --replay FILE";
    exit 1

(* ------------------------------ crash command ---------------------------- *)

let run_crash store seeds seed ops universe per_site no_tear site at
    recovery_at export cache_mb quick =
  let scale = scale_of_quick quick in
  let specs = resolve_stores ~cache_bytes:(cache_mb * 1024 * 1024) scale store in
  let tear = not no_tear in
  let seed_list =
    match seed with Some s -> [ s ] | None -> List.init seeds (fun i -> i + 1)
  in
  let violations = ref 0 in
  (match site with
  | Some site_name ->
    (* pinpoint mode: one exact case per store x seed, for reproducing a
       sweep failure from its printed hint *)
    let site =
      match Kv_common.Fault_point.of_string site_name with
      | Some s -> s
      | None -> failwith ("unknown crash site: " ^ site_name)
    in
    List.iter
      (fun spec ->
        List.iter
          (fun sd ->
            let case =
              { Fault.Sweep.c_store = spec.Harness.Stores.name;
                c_seed = sd; c_site = site; c_after = at;
                c_recovery_after = recovery_at }
            in
            let o =
              Fault.Sweep.run_case_of ~make:spec.Harness.Stores.make ~ops
                ~universe ~tear case
            in
            Printf.printf "%-16s seed=%d site=%s at=%d: crashed=%b%s %s\n"
              o.Fault.Checker.store_name sd site_name at
              o.Fault.Checker.crashed
              (if o.Fault.Checker.recovery_crashed then " recovery-crashed"
               else "")
              (if o.Fault.Checker.violations = [] then "ok" else "VIOLATIONS");
            List.iter
              (fun v ->
                incr violations;
                Printf.printf "    %s\n" v)
              o.Fault.Checker.violations)
          seed_list)
      specs
  | None ->
    let tbl =
      Table.create
        ~title:
          (Printf.sprintf
             "crash sweep: %d seed(s), first/middle/last event per site%s"
             (List.length seed_list)
             (if tear then ", torn 256B writes" else ""))
        ~columns:
          [ ("store", Table.Left); ("cases", Table.Right);
            ("crashes fired", Table.Right); ("recovery crashes", Table.Right);
            ("violations", Table.Right); ("verdict", Table.Left) ]
    in
    List.iter
      (fun spec ->
        let v =
          Fault.Sweep.run_store ~name:spec.Harness.Stores.name
            ~make:spec.Harness.Stores.make ~seeds:seed_list ~per_site ~ops
            ~universe ~tear ()
        in
        let nviol =
          List.fold_left
            (fun a f -> a + List.length f.Fault.Sweep.f_violations)
            0 v.Fault.Sweep.v_failures
        in
        violations := !violations + nviol;
        Table.add_row tbl
          [ v.Fault.Sweep.v_store;
            string_of_int v.Fault.Sweep.v_cases;
            string_of_int v.Fault.Sweep.v_fired;
            string_of_int v.Fault.Sweep.v_recovery_crashes;
            string_of_int nviol;
            (if Fault.Sweep.passed v then "ok" else "FAIL") ];
        List.iter
          (fun f ->
            Printf.printf "repro: %s\n" (Fault.Sweep.repro_hint f.Fault.Sweep.f_case);
            List.iter
              (fun d -> Printf.printf "    %s\n" d)
              f.Fault.Sweep.f_violations)
          v.Fault.Sweep.v_failures;
        match export with
        | Some dir when v.Fault.Sweep.v_failures <> [] ->
          (try
             List.iter
               (fun p -> Printf.printf "trace: wrote %s\n" p)
               (Fault.Sweep.export_failures ~make:spec.Harness.Stores.make
                  ~ops ~universe ~tear ~dir v)
           with Sys_error msg ->
             Printf.eprintf "ckv: cannot export traces: %s\n" msg)
        | Some _ | None -> ())
      specs;
    Table.print tbl);
  if !violations > 0 then exit 1

(* ------------------------------ scrub command ---------------------------- *)

let run_scrub store keys faults budget seed quick =
  let scale = scale_of_quick quick in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf
           "scrub: %d keys, %d injected media faults, %s budget per pass"
           keys faults
           (Table.cell_bytes (float_of_int budget)))
      ~columns:
        [ ("store", Table.Left); ("injected", Table.Right);
          ("passes", Table.Right); ("detected", Table.Right);
          ("repaired", Table.Right); ("quarantined", Table.Right);
          ("scanned", Table.Right); ("verdict", Table.Left) ]
  in
  let failures = ref 0 in
  List.iter
    (fun spec ->
      let handle = spec.Harness.Stores.make () in
      let load =
        Harness.Stores.load_unique ~store:handle ~threads:1 ~start_at:0.0
          ~n:keys ~vlen:24
      in
      let clock =
        Pmem_sim.Clock.create
          ~at:(Harness.Stores.settled_cursor ~store:handle load)
          ()
      in
      let vlog = Store_intf.vlog handle in
      let dev = Store_intf.device handle in
      let rng = Workload.Rng.create ~seed in
      (* corrupt the newest record of [faults] distinct live keys,
         alternating poisoned 256B units with single-entry bit rot *)
      let victims = Hashtbl.create faults in
      let guard = ref 0 in
      while Hashtbl.length victims < faults && !guard < 100 * faults do
        incr guard;
        let key = Workload.Keyspace.key_of_index (Workload.Rng.int rng keys) in
        if not (Hashtbl.mem victims key) then
          match (Store_intf.read handle clock key).Store_intf.loc with
          | Some loc when loc < Kv_common.Vlog.persisted vlog ->
            if Hashtbl.length victims land 1 = 0 then begin
              let off, len = Kv_common.Vlog.entry_range vlog loc in
              Pmem_sim.Device.inject_poison dev ~off ~len
            end
            else Kv_common.Vlog.corrupt_entry vlog loc;
            Hashtbl.replace victims key ()
          | Some _ | None -> ()
      done;
      let injected = Hashtbl.length victims in
      let scrubs = List.mem Kv_common.Fault_point.Scrub
          (Store_intf.fault_points handle)
      in
      let detected = ref 0 and repaired = ref 0 and quarantined = ref 0 in
      let scanned = ref 0 and passes = ref 0 in
      let continue = ref true in
      while !continue && !passes < 10_000 do
        let r = Store_intf.scrub handle clock ~budget_bytes:budget in
        incr passes;
        detected := !detected + r.Store_intf.sr_detected;
        repaired := !repaired + r.Store_intf.sr_repaired;
        quarantined := !quarantined + r.Store_intf.sr_quarantined;
        scanned := !scanned + r.Store_intf.sr_scanned_bytes;
        if !detected >= injected || r.Store_intf.sr_scanned_bytes = 0 then
          continue := false
      done;
      (* a scrubbing store must detect every injected fault (collateral on
         shared 256B units may push detections past the injected count) and
         must never serve a victim's record as a successful read *)
      let ok = ref (not scrubs || !detected >= injected) in
      Hashtbl.iter
        (fun key () ->
          let r = Store_intf.read handle clock key in
          match (r.Store_intf.loc, r.Store_intf.stage) with
          | Some _, _ -> ok := false (* corrupted record served *)
          | None, Store_intf.Corrupt -> ()
          | None, _ -> if scrubs then ok := false (* silent miss *))
        victims;
      if not !ok then incr failures;
      Table.add_row tbl
        [ spec.Harness.Stores.name;
          string_of_int injected;
          string_of_int !passes;
          string_of_int !detected;
          string_of_int !repaired;
          string_of_int !quarantined;
          Table.cell_bytes (float_of_int !scanned);
          (if !ok then if scrubs then "ok" else "no scrubber"
           else "FAIL") ])
    (resolve_stores scale store);
  Table.print tbl;
  if !failures > 0 then exit 1

(* ------------------------------ media command ---------------------------- *)

let run_media store seeds ops universe faults quick =
  let scale = scale_of_quick quick in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "media-fault sweep: %d seed(s), %d faults per case"
           (List.length seeds) faults)
      ~columns:
        [ ("store", Table.Left); ("injected", Table.Right);
          ("corrupt reads", Table.Right); ("scrub detected", Table.Right);
          ("recovered", Table.Right); ("violations", Table.Right);
          ("verdict", Table.Left) ]
  in
  let violations = ref 0 in
  List.iter
    (fun spec ->
      let v =
        Fault.Media.run_store ~name:spec.Harness.Stores.name
          ~make:spec.Harness.Stores.make ~seeds ~ops ~universe ~faults ()
      in
      violations := !violations + List.length v.Fault.Media.m_violations;
      Table.add_row tbl
        [ v.Fault.Media.m_store;
          string_of_int v.Fault.Media.m_injected;
          string_of_int v.Fault.Media.m_corrupt_reads;
          string_of_int v.Fault.Media.m_scrub_detected;
          string_of_int v.Fault.Media.m_recovered;
          string_of_int (List.length v.Fault.Media.m_violations);
          (if Fault.Media.passed v then "ok" else "FAIL") ];
      List.iter
        (fun d -> Printf.printf "    %s\n" d)
        v.Fault.Media.m_violations)
    (resolve_stores scale store);
  Table.print tbl;
  (* artifact legs: table runs and manifest floors, ChameleonDB only *)
  (match Fault.Media.run_chameleon_artifacts ~ops ~universe () with
  | [] -> print_endline "artifact legs (table runs, manifest floors): ok"
  | vs ->
    violations := !violations + List.length vs;
    print_endline "artifact legs (table runs, manifest floors): FAIL";
    List.iter (fun d -> Printf.printf "    %s\n" d) vs);
  if !violations > 0 then exit 1

(* --------------------------- serve / client ------------------------------ *)

let run_serve store path max_requests cache_mb quick =
  let scale = scale_of_quick quick in
  let clock = Pmem_sim.Clock.create () in
  let cache_bytes = cache_mb * 1024 * 1024 in
  let backend =
    if store = "ChameleonDB" then
      (* the real path materializes values so gets return payloads *)
      let cfg =
        { (Harness.Stores.chameleon_cfg scale) with
          Chameleondb.Config.materialize_values = true;
          cache_bytes }
      in
      Service.Endpoint.backend_of_store ~clock
        (Chameleondb.Store.store (Chameleondb.Store.create ~cfg ()))
    else
      Service.Endpoint.backend_of_store ~clock
        ((Harness.Stores.find ~cache_bytes scale store).Harness.Stores.make ())
  in
  let max_requests = Option.value max_requests ~default:max_int in
  let served =
    Service.Endpoint.serve ~max_requests
      ~on_ready:(fun () ->
        Printf.printf "ckv serve: %s listening on %s\n%!" store path)
      ~path backend
  in
  Printf.printf "ckv serve: done after %d request(s)\n" served

let run_client path script =
  let key s =
    match Int64.of_string_opt s with
    | Some k -> k
    | None -> failwith ("client: bad key " ^ s)
  in
  let c = Service.Endpoint.connect path in
  let show = function
    | Proto.Value v -> Printf.printf "value %s\n" (Bytes.to_string v)
    | r -> Format.printf "%a@." Proto.pp_reply r
  in
  let rec go = function
    | [] -> ()
    | "put" :: k :: v :: rest ->
      show (Service.Endpoint.request c (Proto.Put (key k, Bytes.of_string v)));
      go rest
    | "get" :: k :: rest ->
      show (Service.Endpoint.request c (Proto.Get (key k)));
      go rest
    | "del" :: k :: rest ->
      show (Service.Endpoint.request c (Proto.Delete (key k)));
      go rest
    | op :: _ -> failwith ("client: unknown op " ^ op)
  in
  go script;
  Service.Endpoint.close c

(* ------------------------------ bench command ---------------------------- *)

let run_bench ids quick seed bench_json =
  match
    Harness.Experiments.run_ids ~seed ?bench_json
      ~scale:(scale_of_quick quick) ids
  with
  | [] -> ()
  | failed ->
    Printf.eprintf "ckv bench: FAILED gates: %s\n"
      (String.concat ", " failed);
    exit 1

let run_list () =
  print_endline "experiments:";
  List.iter
    (fun e ->
      Printf.printf "  %-12s %s\n" e.Harness.Experiments.id
        e.Harness.Experiments.title)
    Harness.Experiments.all;
  print_endline "stores:";
  List.iter
    (fun n -> Printf.printf "  %s\n" n)
    (store_names Harness.Stores.default)

(* --------------------------------- wiring -------------------------------- *)

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Use the reduced scale.")

let bench_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "bench-json" ] ~docv:"FILE"
        ~doc:
          "Write the run's bench records (a JSON array: id, seed, quick, \
           wall_s, metrics, gates, pass) to $(docv).")

let store_arg =
  Arg.(
    value
    & opt string "ChameleonDB"
    & info [ "store" ] ~docv:"NAME" ~doc:"Store to drive, or $(b,all).")

let threads_arg =
  Arg.(value & opt int 8 & info [ "threads" ] ~docv:"N" ~doc:"Thread count.")

let cache_mb_arg =
  Arg.(
    value & opt int 0
    & info [ "cache-mb" ] ~docv:"MB"
        ~doc:
          "ChameleonDB DRAM read-cache capacity in MB (0 = disabled; \
           baselines never have one).")

let load_cmd =
  let keys =
    Arg.(
      value & opt int 200_000
      & info [ "keys" ] ~docv:"N" ~doc:"Unique keys to load.")
  in
  Cmd.v
    (Cmd.info "load" ~doc:"Load unique keys and report put performance")
    Term.(const run_load $ store_arg $ keys $ threads_arg $ quick_arg)

let ycsb_cmd =
  let mix =
    Arg.(
      value & opt string "B"
      & info [ "mix" ] ~docv:"MIX" ~doc:"LOAD, A, B, C, D, E or F.")
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"N"
          ~doc:"Workload generator seed (default: the generator's own).")
  in
  let ops =
    Arg.(
      value & opt int 50_000
      & info [ "ops" ] ~docv:"N" ~doc:"Requests after the load phase.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ]
          ~docv:"FILE"
          ~doc:
            "Record spans during the measured run and write Chrome \
             trace-event JSON to $(docv) (open in chrome://tracing or \
             Perfetto).  With $(b,--store all), one file per store, \
             prefixed with the store name.")
  in
  Cmd.v
    (Cmd.info "ycsb" ~doc:"Run a YCSB workload")
    Term.(
      const run_ycsb $ store_arg $ mix $ ops $ threads_arg $ seed $ trace
      $ cache_mb_arg $ quick_arg $ bench_json_arg)

let crash_cmd =
  let seeds =
    Arg.(
      value & opt int 3
      & info [ "seeds" ] ~docv:"N" ~doc:"Sweep seeds 1..$(docv).")
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"N"
          ~doc:"Use exactly this seed (overrides $(b,--seeds)).")
  in
  let ops =
    Arg.(
      value & opt int 4_000
      & info [ "ops" ] ~docv:"N" ~doc:"Workload operations per case.")
  in
  let universe =
    Arg.(
      value & opt int 400
      & info [ "universe" ] ~docv:"N" ~doc:"Distinct keys in the workload.")
  in
  let per_site =
    Arg.(
      value & opt int 3
      & info [ "per-site" ] ~docv:"N"
          ~doc:"Crash points per fault site (first/middle/last).")
  in
  let no_tear =
    Arg.(
      value & flag
      & info [ "no-tear" ]
          ~doc:"Disable torn 256B writes inside the unpersisted tail.")
  in
  let site =
    Arg.(
      value
      & opt (some string) None
      & info [ "site" ] ~docv:"SITE"
          ~doc:
            "Pinpoint one fault site (e.g. $(b,flush), \
             $(b,upper-compaction), $(b,gc), $(b,manifest-update)) instead \
             of sweeping; combine with $(b,--at) and $(b,--seed) to replay \
             a reported violation.")
  in
  let at =
    Arg.(
      value & opt int 0
      & info [ "at" ] ~docv:"N"
          ~doc:"With $(b,--site): crash at the N-th persist event there.")
  in
  let recovery_at =
    Arg.(
      value
      & opt (some int) None
      & info [ "recovery-at" ] ~docv:"N"
          ~doc:
            "Also crash recovery at its N-th persist event, then recover \
             again (idempotence check).")
  in
  let export =
    Arg.(
      value
      & opt (some string) None
      & info [ "export" ] ~docv:"DIR"
          ~doc:
            "Re-run violating cases with tracing and write Chrome-trace \
             JSON files into $(docv).")
  in
  Cmd.v
    (Cmd.info "crash"
       ~doc:
         "Crash fault-injection sweep: verify recovery correctness at \
          every fault site")
    Term.(
      const run_crash $ store_arg $ seeds $ seed $ ops $ universe $ per_site
      $ no_tear $ site $ at $ recovery_at $ export $ cache_mb_arg
      $ quick_arg)

let scrub_cmd =
  let keys =
    Arg.(
      value & opt int 20_000
      & info [ "keys" ] ~docv:"N" ~doc:"Unique keys to load before injecting.")
  in
  let faults =
    Arg.(
      value & opt int 16
      & info [ "faults" ] ~docv:"N"
          ~doc:"Media faults to inject into live log records.")
  in
  let budget =
    Arg.(
      value
      & opt int (256 * 1024)
      & info [ "budget" ] ~docv:"BYTES" ~doc:"Scrub byte budget per pass.")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N" ~doc:"Fault-placement seed.")
  in
  Cmd.v
    (Cmd.info "scrub"
       ~doc:
         "Inject media faults into a loaded store, run the scrubber, and \
          verify every fault is detected and contained")
    Term.(
      const run_scrub $ store_arg $ keys $ faults $ budget $ seed $ quick_arg)

let media_cmd =
  let seeds =
    Arg.(
      value
      & opt (list int) [ 1; 11; 101 ]
      & info [ "seeds" ] ~docv:"S1,S2,.." ~doc:"Sweep seeds.")
  in
  let ops =
    Arg.(
      value & opt int 3_000
      & info [ "ops" ] ~docv:"N" ~doc:"Workload operations per case.")
  in
  let universe =
    Arg.(
      value & opt int 300
      & info [ "universe" ] ~docv:"N" ~doc:"Distinct keys in the workload.")
  in
  let faults =
    Arg.(
      value & opt int 12
      & info [ "faults" ] ~docv:"N" ~doc:"Media faults injected per case.")
  in
  Cmd.v
    (Cmd.info "media"
       ~doc:
         "Media-fault sweep: seeded bit rot and poisoned units across all \
          stores; no store may serve corrupted data as a successful read")
    Term.(
      const run_media $ store_arg $ seeds $ ops $ universe $ faults
      $ quick_arg)

let bench_cmd =
  let ids =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ID" ~doc:"Experiment ids (default: all).")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Seed for the $(b,mph), $(b,batch), $(b,cluster) and $(b,chaos) \
             experiments; the others use fixed seeds.")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Reproduce the paper's tables and figures and the extension \
          experiments; exits non-zero if any experiment's gate fails")
    Term.(const run_bench $ ids $ quick_arg $ seed $ bench_json_arg)

let trace_cmd =
  let record =
    Arg.(
      value
      & opt (some string) None
      & info [ "record" ] ~docv:"FILE" ~doc:"Record a trace to FILE.")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE" ~doc:"Replay the trace in FILE.")
  in
  let mix =
    Arg.(
      value & opt string "A"
      & info [ "mix" ] ~docv:"MIX" ~doc:"Mix to record (LOAD|A|B|C|D|F).")
  in
  let ops =
    Arg.(
      value & opt int 50_000
      & info [ "ops" ] ~docv:"N" ~doc:"Operations to record.")
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Record or replay workload traces")
    Term.(
      const run_trace $ record $ replay $ mix $ ops $ store_arg $ quick_arg)

let inspect_cmd =
  let keys =
    Arg.(
      value & opt int 200_000
      & info [ "keys" ] ~docv:"N" ~doc:"Unique keys to load before dumping.")
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Load a store and dump its internal state")
    Term.(const run_inspect $ keys $ quick_arg)

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/ckv.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let serve_cmd =
  let max_requests =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-requests" ] ~docv:"N"
          ~doc:"Exit after answering $(docv) requests (default: serve \
                forever).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve a store over a Unix-domain socket (wire protocol)")
    Term.(
      const run_serve $ store_arg $ socket_arg $ max_requests $ cache_mb_arg
      $ quick_arg)

let client_cmd =
  let script =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"OP"
          ~doc:
            "Operations, in order: $(b,put KEY VALUE), $(b,get KEY), \
             $(b,del KEY).")
  in
  Cmd.v
    (Cmd.info "client" ~doc:"Send requests to a running ckv serve")
    Term.(const run_client $ socket_arg $ script)

let list_cmd =
  Cmd.v
    (Cmd.info "list" ~doc:"List experiments and stores")
    Term.(const run_list $ const ())

let () =
  let info =
    Cmd.info "ckv" ~version:"1.0.0"
      ~doc:"ChameleonDB (EuroSys'21) reproduction driver"
  in
  exit (Cmd.eval (Cmd.group info
       [ load_cmd; ycsb_cmd; bench_cmd; crash_cmd; scrub_cmd; media_cmd;
         trace_cmd; inspect_cmd; serve_cmd; client_cmd; list_cmd ]))
