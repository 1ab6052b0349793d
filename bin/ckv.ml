(* ckv — command-line driver for the ChameleonDB reproduction.

   ckv ycsb  --mix B --ops 50000 --store all
   ckv bench fig10 tab4 --quick
   ckv bench mph --quick --seed 11 --bench-json BENCH_mph.json
   ckv bench crash media integrity --seed 11
   ckv crash --store ChameleonDB --seed 11 --site flush --at 0
   ckv list *)

open Cmdliner
module Store_intf = Kv_common.Store_intf
module Table = Metrics.Table_fmt
module Proto = Service.Proto

let scale_of_quick quick =
  if quick then Harness.Stores.quick else Harness.Stores.default

let store_names scale =
  List.map (fun s -> s.Harness.Stores.name) (Harness.Stores.all scale)

(* "YCSB_A" -> "A": the spelling --mix takes *)
let mix_letter m =
  let name = Workload.Ycsb.name m in
  String.sub name 5 (String.length name - 5)

let resolve_stores ?cache_bytes scale name =
  if name = "all" then Harness.Stores.all ?cache_bytes scale
  else [ Harness.Stores.find ?cache_bytes scale name ]

(* ------------------------------- ycsb command ---------------------------- *)

let run_ycsb store mix ops threads seed trace_file cache_mb quick bench_json =
  let scale = scale_of_quick quick in
  let wall_t0 = Unix.gettimeofday () in
  let cache_bytes = cache_mb * 1024 * 1024 in
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

let run_trace record replay mix ops store quick =
  let scale = scale_of_quick quick in
  match (record, replay) with
  | Some path, None ->
    let gen =
      Workload.Ycsb.create ~mix ~loaded:scale.Harness.Stores.load_keys ()
    in
    let t =
      Workload.Trace.record ~n:ops ~gen:(fun () -> Workload.Ycsb.next gen)
    in
    Workload.Trace.save t path;
    Printf.printf "recorded %d %s operations to %s\n" ops (mix_letter mix) path
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

(* Replay one crash case, e.g. from a [ckv bench crash] repro hint. *)
let run_crash store seed site at recovery_at export cache_mb quick =
  let spec =
    Harness.Stores.find ~cache_bytes:(cache_mb * 1024 * 1024)
      (scale_of_quick quick) store
  in
  let case =
    { Fault.Sweep.c_store = spec.Harness.Stores.name; c_seed = seed;
      c_site = site; c_after = at; c_recovery_after = recovery_at }
  in
  let make = spec.Harness.Stores.make in
  let o =
    match export with
    | None -> Fault.Sweep.run_case ~make case
    | Some dir ->
      let o, path = Fault.Sweep.export_case ~make ~dir case in
      Printf.printf "trace: wrote %s\n" path;
      o
  in
  Printf.printf "%-16s seed=%d site=%s at=%d: crashed=%b%s %s\n"
    o.Fault.Checker.store_name seed
    (Kv_common.Fault_point.to_string site)
    at o.Fault.Checker.crashed
    (if o.Fault.Checker.recovery_crashed then " recovery-crashed" else "")
    (if o.Fault.Checker.violations = [] then "ok" else "VIOLATIONS");
  List.iter (Printf.printf "    %s\n") o.Fault.Checker.violations;
  if o.Fault.Checker.violations <> [] then exit 1

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

(* [--store] as an enum over the store names, so an unknown name is a
   usage error listing them; [~all] also accepts "all" *)
let store_arg ~all =
  let names =
    store_names Harness.Stores.default @ if all then [ "all" ] else []
  in
  let choices = List.map (fun n -> (n, n)) names in
  Arg.(
    value
    & opt (enum choices) "ChameleonDB"
    & info [ "store" ] ~docv:"NAME"
        ~doc:(Printf.sprintf "Store to drive: %s." (doc_alts_enum choices)))

let threads_arg =
  Arg.(value & opt int 8 & info [ "threads" ] ~docv:"N" ~doc:"Thread count.")

let cache_mb_arg =
  Arg.(
    value & opt int 0
    & info [ "cache-mb" ] ~docv:"MB"
        ~doc:
          "ChameleonDB DRAM read-cache capacity in MB (0 = disabled; \
           baselines never have one).")

let mix_arg default =
  let parse s =
    Option.to_result ~none:("unknown YCSB mix: " ^ s)
      (Workload.Ycsb.of_string s)
  in
  let print ppf m = Format.pp_print_string ppf (mix_letter m) in
  Arg.(
    value
    & opt (conv' (parse, print)) default
    & info [ "mix" ] ~docv:"MIX" ~doc:"LOAD, A, B, C, D, E or F.")

let ycsb_cmd =
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
      const run_ycsb $ store_arg ~all:true $ mix_arg Workload.Ycsb.B $ ops $ threads_arg
      $ seed $ trace $ cache_mb_arg $ quick_arg $ bench_json_arg)

let crash_cmd =
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Workload seed.")
  in
  let site =
    let sites =
      List.map
        (fun s -> (Kv_common.Fault_point.to_string s, s))
        Kv_common.Fault_point.all
    in
    Arg.(
      required
      & opt (some (enum sites)) None
      & info [ "site" ] ~docv:"SITE"
          ~doc:
            "Fault site to crash at (e.g. $(b,flush), \
             $(b,upper-compaction), $(b,gc), $(b,manifest-update)).")
  in
  let at =
    Arg.(
      value & opt int 0
      & info [ "at" ] ~docv:"N"
          ~doc:"Crash at the N-th persist event at $(b,--site).")
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
          ~doc:"Record the case's spans and write Chrome-trace JSON into \
                $(docv).")
  in
  Cmd.v
    (Cmd.info "crash"
       ~doc:
         "Replay one crash case (a $(b,ckv bench crash) repro hint) and \
          verify recovery; exits non-zero on a violation")
    Term.(
      const run_crash $ store_arg ~all:false $ seed $ site $ at $ recovery_at $ export
      $ cache_mb_arg $ quick_arg)

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
            "Seed for the $(b,mph), $(b,batch), $(b,cluster), $(b,chaos), \
             $(b,crash) and $(b,media) experiments; the others use fixed \
             seeds.")
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
  let ops =
    Arg.(
      value & opt int 50_000
      & info [ "ops" ] ~docv:"N" ~doc:"Operations to record.")
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Record or replay workload traces")
    Term.(
      const run_trace $ record $ replay $ mix_arg Workload.Ycsb.A $ ops
      $ store_arg ~all:true $ quick_arg)

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
      const run_serve $ store_arg ~all:false $ socket_arg $ max_requests $ cache_mb_arg
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
       [ ycsb_cmd; bench_cmd; crash_cmd; trace_cmd; inspect_cmd; serve_cmd;
         client_cmd; list_cmd ]))
