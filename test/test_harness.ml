module Clock = Pmem_sim.Clock
module Types = Kv_common.Types
module Store_intf = Kv_common.Store_intf
module Runner = Harness.Runner
module Timeline = Harness.Timeline
module Stores = Harness.Stores
module Experiments = Harness.Experiments

let tiny_scale =
  { Stores.quick with
    Stores.shards = 4;
    memtable_slots = 64;
    load_keys = 8_000;
    sweep_ops = 2_000;
    threads = [ 1; 2 ] }

let key i = Workload.Keyspace.key_of_index i

(* --------------------------------- Runner -------------------------------- *)

let test_runner_counts_ops () =
  let store = (Stores.chameleon tiny_scale).Stores.make () in
  let i = ref 0 in
  let r =
    Runner.run_ops ~store ~threads:4 ~start_at:0.0 ~ops:1_000
      ~next:(fun () ->
        incr i;
        Types.Put (key !i, 8))
      ()
  in
  Alcotest.(check int) "ops" 1_000 r.Runner.ops;
  Alcotest.(check int) "latencies recorded" 1_000
    (Metrics.Histogram.count r.Runner.latency);
  Alcotest.(check int) "all puts" 1_000
    (Metrics.Histogram.count r.Runner.put_latency);
  Alcotest.(check bool) "time advanced" true (Runner.sim_ns r > 0.0);
  Alcotest.(check bool) "throughput positive" true
    (Runner.throughput_mops r > 0.0)

let test_runner_start_at () =
  let store = (Stores.chameleon tiny_scale).Stores.make () in
  let r =
    Runner.run_ops ~store ~threads:1 ~start_at:5e6 ~ops:10
      ~next:(fun () -> Types.Get 1L)
      ()
  in
  Alcotest.(check (float 0.0)) "start preserved" 5e6 r.Runner.start_ns;
  Alcotest.(check bool) "end after start" true (r.Runner.end_ns > 5e6)

let test_runner_generator_driven () =
  let store = (Stores.chameleon tiny_scale).Stores.make () in
  (* each thread issues a fixed budget, then retires *)
  let budget = Array.make 3 100 in
  let gen ~thread ~now:_ =
    if budget.(thread) = 0 then None
    else begin
      budget.(thread) <- budget.(thread) - 1;
      Some (Types.Put (key (thread * 1000 + budget.(thread)), 8))
    end
  in
  let r = Runner.run ~store ~threads:3 ~start_at:0.0 ~gen () in
  Alcotest.(check int) "per-thread budgets honoured" 300 r.Runner.ops

let test_runner_splits_get_put () =
  let store = (Stores.chameleon tiny_scale).Stores.make () in
  let i = ref 0 in
  let r =
    Runner.run_ops ~store ~threads:2 ~start_at:0.0 ~ops:100
      ~next:(fun () ->
        incr i;
        if !i mod 2 = 0 then Types.Get (key !i) else Types.Put (key !i, 8))
      ()
  in
  Alcotest.(check int) "gets" 50 (Metrics.Histogram.count r.Runner.get_latency);
  Alcotest.(check int) "puts" 50 (Metrics.Histogram.count r.Runner.put_latency)

let test_runner_restores_thread_count () =
  let store = (Stores.chameleon tiny_scale).Stores.make () in
  let dev = (Store_intf.device store) in
  Pmem_sim.Device.set_active_threads dev 3;
  let _ =
    Runner.run_ops ~store ~threads:8 ~start_at:0.0 ~ops:10
      ~next:(fun () -> Types.Get 1L)
      ()
  in
  Alcotest.(check int) "restored" 3 (Pmem_sim.Device.active_threads dev)

(* -------------------------------- Timeline ------------------------------- *)

let test_timeline_windows () =
  let store = (Stores.chameleon tiny_scale).Stores.make () in
  let remaining = ref 5_000 in
  let gen ~thread:_ ~now:_ =
    if !remaining = 0 then None
    else begin
      decr remaining;
      Some (Types.Put (key !remaining, 8))
    end
  in
  let windows =
    Timeline.run ~store ~threads:2 ~start_at:0.0 ~window_ns:100_000.0 ~gen ()
  in
  Alcotest.(check bool) "has windows" true (List.length windows > 1);
  let total = List.fold_left (fun a w -> a + w.Timeline.ops) 0 windows in
  Alcotest.(check int) "ops conserved" 5_000 total;
  let rec ordered = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "time-ordered" true
        (a.Timeline.t_start < b.Timeline.t_start);
      ordered rest
    | _ -> ()
  in
  ordered windows;
  List.iter
    (fun w ->
      Alcotest.(check int) "puts+gets=ops" w.Timeline.ops
        (w.Timeline.puts + w.Timeline.gets))
    windows

(* --------------------------------- Stores -------------------------------- *)

let test_stores_zoo () =
  let specs = Stores.all tiny_scale in
  Alcotest.(check int) "eight stores" 8 (List.length specs);
  List.iter
    (fun spec ->
      let h = spec.Stores.make () in
      Alcotest.(check string) "name matches" spec.Stores.name
        (Store_intf.name h))
    specs;
  Alcotest.(check bool) "find works" true
    ((Stores.find tiny_scale "Dram-Hash").Stores.name = "Dram-Hash");
  Alcotest.(check bool) "find unknown raises" true
    (try
       ignore (Stores.find tiny_scale "nope");
       false
     with Invalid_argument _ -> true)

let test_load_unique () =
  let store = (Stores.chameleon tiny_scale).Stores.make () in
  let r =
    Stores.load_unique ~store ~threads:2 ~start_at:0.0 ~n:500 ~vlen:8
  in
  Alcotest.(check int) "loaded" 500 r.Runner.ops;
  let c = Clock.create ~at:(Stores.settled_cursor ~store r) () in
  for i = 0 to 499 do
    if (Store_intf.read store c (key i)).Store_intf.loc = None then
      Alcotest.failf "key %d missing after load" i
  done

let test_settled_cursor_past_backlog () =
  let store = (Stores.chameleon tiny_scale).Stores.make () in
  let r =
    Stores.load_unique ~store ~threads:2 ~start_at:0.0 ~n:2_000 ~vlen:8
  in
  let cursor = Stores.settled_cursor ~store r in
  Alcotest.(check bool) "cursor >= end" true (cursor >= r.Runner.end_ns)

let test_uniform_get_gen () =
  let gen = Stores.uniform_get_gen ~seed:3 ~universe:100 in
  for _ = 1 to 200 do
    match gen () with
    | Types.Get k ->
      let found = ref false in
      for i = 0 to 99 do
        if Int64.equal (key i) k then found := true
      done;
      Alcotest.(check bool) "within universe" true !found
    | _ -> Alcotest.fail "expected get"
  done

(* ------------------------------- Experiments ----------------------------- *)

let test_experiment_registry () =
  let ids = Experiments.ids () in
  Alcotest.(check int) "unique ids" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun must ->
      Alcotest.(check bool) ("has " ^ must) true (List.mem must ids))
    [ "fig1"; "fig2"; "fig3"; "fig10"; "fig11"; "fig12"; "fig13"; "fig14";
      "fig15"; "fig16"; "fig17"; "tab1"; "tab4"; "tab5"; "wa"; "integrity";
      "crash"; "media" ]

let test_experiment_unknown_id () =
  Alcotest.(check bool) "unknown id rejected" true
    (try
       ignore (Experiments.run_ids ~scale:tiny_scale [ "nope" ]);
       false
     with Invalid_argument _ -> true)

let test_experiment_smoke () =
  (* cheap experiments actually run end-to-end *)
  Alcotest.(check (list string)) "no failed gates" []
    (Experiments.run_ids ~scale:tiny_scale [ "tab1"; "tab5" ])

let test_scan_audit_gate () =
  let e = List.find (fun e -> e.Experiments.id = "scan") Experiments.all in
  (* few loaded keys keep the throughput half cheap; the audit half has a
     fixed size *)
  let scale = { tiny_scale with Stores.load_keys = 1_000 } in
  let o = e.Experiments.run scale ~seed:1 in
  Alcotest.(check (option bool)) "audit gate present and passing" (Some true)
    (List.assoc_opt "audit_clean" o.Experiments.gates)

let test_media_gates () =
  let e = List.find (fun e -> e.Experiments.id = "media") Experiments.all in
  let o = e.Experiments.run tiny_scale ~seed:1 in
  List.iter
    (fun spec ->
      Alcotest.(check (option bool))
        (spec.Stores.name ^ " gate passing") (Some true)
        (List.assoc_opt (spec.Stores.name ^ "/no_violations")
           o.Experiments.gates))
    (Stores.all tiny_scale);
  Alcotest.(check bool) "every gate passes" true
    (List.for_all snd o.Experiments.gates)

let test_failed_store_gate_named () =
  (* one clean store beside the reversed-replay mutant: only the mutant's
     gate fails, and run_ids names it *)
  let broken =
    { Stores.name = "Broken-Replay"; make = Mutants.broken_replay }
  in
  let exp =
    { Experiments.id = "crash"; title = "crash sweep with a mutant";
      run =
        Experiments.crash_sweep
          [ (Stores.find tiny_scale "Dram-Hash", 0); (broken, 0) ] }
  in
  Alcotest.(check (list string)) "failed gate named"
    [ "crash/Broken-Replay/no_violations" ]
    (Experiments.run_ids ~exps:[ exp ] ~scale:tiny_scale [])

(* Brackets outside string literals balance and never go negative. *)
let balanced json =
  let depth = ref 0 and ok = ref true and in_str = ref false in
  let escaped = ref false in
  String.iter
    (fun c ->
      if !in_str then begin
        if !escaped then escaped := false
        else if c = '\\' then escaped := true
        else if c = '"' then in_str := false
      end
      else
        match c with
        | '"' -> in_str := true
        | '[' | '{' -> incr depth
        | ']' | '}' ->
          decr depth;
          if !depth < 0 then ok := false
        | _ -> ())
    json;
  !ok && !depth = 0 && not !in_str

let test_bench_json_writer () =
  let path = Filename.temp_file "bench" ".json" in
  let outcome =
    { Experiments.metrics =
        [ ("ratio", infinity); ("neg", neg_infinity); ("undef", nan);
          ("say \"hi\"\\now", 1.5); ("exact", 0.1) ];
      gates = [ ("g\"1", true); ("g2", false) ] }
  in
  Experiments.write_records path
    [ { Experiments.id = "t"; seed = None; quick = true; wall_s = 0.25;
        outcome };
      { Experiments.id = "u"; seed = Some 7; quick = false; wall_s = 1.0;
        outcome = { Experiments.metrics = []; gates = [] } } ];
  let json = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  let has sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length json && (String.sub json i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "balanced" true (balanced json);
  Alcotest.(check bool) "array" true (json.[0] = '[');
  List.iter
    (fun bare ->
      Alcotest.(check bool) ("no bare " ^ bare) false (has (": " ^ bare)))
    [ "inf"; "-inf"; "nan"; "-nan" ];
  Alcotest.(check bool) "non-finite as null" true (has "\"ratio\": null");
  Alcotest.(check bool) "escaped name" true
    (has {|"say \"hi\"\\now": 1.5|});
  Alcotest.(check bool) "escaped gate" true (has {|"g\"1": true|});
  Alcotest.(check bool) "round-trip float" true (has "\"exact\": 0.1\n");
  Alcotest.(check bool) "null seed" true (has "\"seed\": null");
  Alcotest.(check bool) "pass derived" true (has "\"pass\": false")

let test_summary_of_result () =
  let store = (Stores.chameleon tiny_scale).Stores.make () in
  (* enough entries that log batches persist within the measured run *)
  let r =
    Stores.load_unique ~store ~threads:1 ~start_at:0.0 ~n:400 ~vlen:8
  in
  let s = Runner.summary ~name:"x" ~user_bytes:9600.0 r in
  Alcotest.(check bool) "throughput carried" true
    (Metrics.Summary.throughput_mops s > 0.0);
  Alcotest.(check bool) "wa computed" true
    (Metrics.Summary.write_amplification s > 0.0)


let test_trace_through_runner () =
  (* a recorded trace drives the runner; ops and results are conserved *)
  let g = Workload.Ycsb.create ~seed:21 ~mix:Workload.Ycsb.F ~loaded:500 () in
  let t =
    Workload.Trace.record ~n:2_000 ~gen:(fun () -> Workload.Ycsb.next g)
  in
  let run () =
    let store = (Stores.chameleon tiny_scale).Stores.make () in
    let load =
      Stores.load_unique ~store ~threads:2 ~start_at:0.0 ~n:500 ~vlen:8
    in
    let next = Workload.Trace.replayer t in
    let r =
      Runner.run ~store ~threads:4
        ~start_at:(Stores.settled_cursor ~store load)
        ~gen:(fun ~thread:_ ~now:_ -> next ())
        ()
    in
    (r.Runner.ops, Runner.sim_ns r)
  in
  let ops1, ns1 = run () in
  let ops2, ns2 = run () in
  Alcotest.(check int) "all ops replayed" 2_000 ops1;
  Alcotest.(check int) "deterministic ops" ops1 ops2;
  Alcotest.(check (float 0.0)) "deterministic simulated time" ns1 ns2

let test_uniform_get_gen_deterministic () =
  let a = Stores.uniform_get_gen ~seed:5 ~universe:50 in
  let b = Stores.uniform_get_gen ~seed:5 ~universe:50 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "same stream" true (a () = b ())
  done

let test_runner_empty_generators () =
  let store = (Stores.chameleon tiny_scale).Stores.make () in
  let r =
    Runner.run ~store ~threads:4 ~start_at:0.0
      ~gen:(fun ~thread:_ ~now:_ -> None)
      ()
  in
  Alcotest.(check int) "no ops" 0 r.Runner.ops;
  Alcotest.(check (float 0.0)) "no time" 0.0 (Runner.sim_ns r)

let () =
  Alcotest.run "harness"
    [ ( "runner",
        [ Alcotest.test_case "counts ops" `Quick test_runner_counts_ops;
          Alcotest.test_case "start_at" `Quick test_runner_start_at;
          Alcotest.test_case "generator-driven" `Quick
            test_runner_generator_driven;
          Alcotest.test_case "splits get/put latencies" `Quick
            test_runner_splits_get_put;
          Alcotest.test_case "restores device thread count" `Quick
            test_runner_restores_thread_count ] );
      ( "integration",
        [ Alcotest.test_case "trace through runner" `Quick
            test_trace_through_runner;
          Alcotest.test_case "uniform gen deterministic" `Quick
            test_uniform_get_gen_deterministic;
          Alcotest.test_case "empty generators" `Quick
            test_runner_empty_generators ] );
      ( "timeline",
        [ Alcotest.test_case "windows" `Quick test_timeline_windows ] );
      ( "stores",
        [ Alcotest.test_case "zoo" `Quick test_stores_zoo;
          Alcotest.test_case "load_unique" `Quick test_load_unique;
          Alcotest.test_case "settled cursor" `Quick
            test_settled_cursor_past_backlog;
          Alcotest.test_case "uniform get gen" `Quick test_uniform_get_gen ] );
      ( "experiments",
        [ Alcotest.test_case "registry" `Quick test_experiment_registry;
          Alcotest.test_case "unknown id" `Quick test_experiment_unknown_id;
          Alcotest.test_case "smoke (tab1, tab5)" `Quick test_experiment_smoke;
          Alcotest.test_case "scan audit gate" `Quick test_scan_audit_gate;
          Alcotest.test_case "media gates (every store)" `Quick
            test_media_gates;
          Alcotest.test_case "failed store gate named" `Quick
            test_failed_store_gate_named;
          Alcotest.test_case "bench JSON writer" `Quick test_bench_json_writer;
          Alcotest.test_case "summary" `Quick test_summary_of_result ] ) ]
