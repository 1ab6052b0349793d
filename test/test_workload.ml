module Rng = Workload.Rng
module Zipf = Workload.Zipf
module Keyspace = Workload.Keyspace
module Ycsb = Workload.Ycsb
module Types = Kv_common.Types

(* ----------------------------------- Rng --------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seed_matters () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  Alcotest.(check bool) "different streams" false
    (Int64.equal (Rng.next_int64 a) (Rng.next_int64 b))

let test_rng_copy_independent () =
  let a = Rng.create ~seed:3 in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues stream" (Rng.next_int64 a)
    (Rng.next_int64 b)

let prop_rng_int_range =
  QCheck.Test.make ~name:"int in range" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, n) ->
      let rng = Rng.create ~seed in
      let v = Rng.int rng n in
      v >= 0 && v < n)

let prop_rng_float_range =
  QCheck.Test.make ~name:"float in [0,1)" ~count:500 QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed in
      let v = Rng.float rng in
      v >= 0.0 && v < 1.0)

let test_rng_int_zero_rejected () =
  let rng = Rng.create ~seed:1 in
  Alcotest.check_raises "invalid" (Invalid_argument "Rng.int") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_uniformity () =
  let rng = Rng.create ~seed:9 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Rng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "within 10% of uniform" true
        (c > n / 10 * 9 / 10 && c < n / 10 * 11 / 10))
    buckets

(* ----------------------------------- Zipf -------------------------------- *)

let test_zipf_rank0_most_popular () =
  let z = Zipf.create ~n:1000 () in
  let rng = Rng.create ~seed:5 in
  let counts = Hashtbl.create 64 in
  for _ = 1 to 50_000 do
    let r = Zipf.next z rng in
    Hashtbl.replace counts r (1 + Option.value ~default:0 (Hashtbl.find_opt counts r))
  done;
  let c0 = Option.value ~default:0 (Hashtbl.find_opt counts 0) in
  let c10 = Option.value ~default:0 (Hashtbl.find_opt counts 10) in
  Alcotest.(check bool) "rank 0 dominates rank 10" true (c0 > c10);
  (* zipf(0.99): rank 0 should carry several percent of the mass *)
  Alcotest.(check bool) "rank 0 heavy" true (c0 > 50_000 / 50)

let prop_zipf_in_range =
  QCheck.Test.make ~name:"zipf sample in range" ~count:300
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, n) ->
      let z = Zipf.create ~n () in
      let rng = Rng.create ~seed in
      let r = Zipf.next z rng in
      r >= 0 && r < n)

let test_zipf_grow () =
  let z = Zipf.create ~n:10 () in
  Zipf.grow z 1000;
  Alcotest.(check int) "grown" 1000 (Zipf.n z);
  Zipf.grow z 5;
  Alcotest.(check int) "never shrinks" 1000 (Zipf.n z);
  let rng = Rng.create ~seed:1 in
  let saw_large = ref false in
  for _ = 1 to 20_000 do
    if Zipf.next z rng >= 10 then saw_large := true
  done;
  Alcotest.(check bool) "new ranks reachable after grow" true !saw_large

let test_zipf_invalid () =
  Alcotest.check_raises "n >= 1" (Invalid_argument "Zipf.create") (fun () ->
      ignore (Zipf.create ~n:0 ()))

let prop_zipf_scrambled_range =
  QCheck.Test.make ~name:"scrambled zipf in universe" ~count:300
    QCheck.(pair small_int (int_range 1 100_000))
    (fun (seed, universe) ->
      let z = Zipf.create ~n:(max 1 (universe / 2)) () in
      let rng = Rng.create ~seed in
      let v = Zipf.scrambled z rng ~universe in
      v >= 0 && v < universe)

(* --------------------------------- Keyspace ------------------------------ *)

let test_keyspace_nonzero_distinct () =
  let seen = Hashtbl.create 1024 in
  for i = 0 to 10_000 do
    let k = Keyspace.key_of_index i in
    Alcotest.(check bool) "nonzero" false (Int64.equal k Types.empty_key);
    Alcotest.(check bool) "distinct" false (Hashtbl.mem seen k);
    Hashtbl.replace seen k ()
  done

let test_unique_stream_bounds () =
  let f = Keyspace.unique_stream ~n:10 in
  Alcotest.(check bool) "in range works" true
    (Int64.equal (f 3) (Keyspace.key_of_index 3));
  Alcotest.check_raises "oob" (Invalid_argument "Keyspace.unique_stream")
    (fun () -> ignore (f 10))

(* ----------------------------------- YCSB -------------------------------- *)

let count_ops gen n =
  let puts = ref 0 and gets = ref 0 and rmws = ref 0 and dels = ref 0 in
  let scans = ref 0 in
  for _ = 1 to n do
    match Ycsb.next gen with
    | Types.Put _ -> incr puts
    | Types.Get _ -> incr gets
    | Types.Read_modify_write _ -> incr rmws
    | Types.Delete _ -> incr dels
    | Types.Scan _ -> incr scans
  done;
  (!puts, !gets, !rmws, !dels)

let near ~pct ~of_total n = abs (n - (of_total * pct / 100)) < of_total * 5 / 100

let test_ycsb_load_all_puts () =
  let g = Ycsb.create ~mix:Ycsb.Load ~loaded:100 () in
  let puts, gets, rmws, dels = count_ops g 1_000 in
  Alcotest.(check int) "all puts" 1_000 puts;
  Alcotest.(check int) "no gets" 0 (gets + rmws + dels);
  Alcotest.(check int) "universe grows" 1_100 (Ycsb.inserted g)

let test_ycsb_load_unique_keys () =
  let g = Ycsb.create ~mix:Ycsb.Load ~loaded:1 () in
  let seen = Hashtbl.create 64 in
  for _ = 1 to 500 do
    match Ycsb.next g with
    | Types.Put (k, _) ->
      Alcotest.(check bool) "fresh key" false (Hashtbl.mem seen k);
      Hashtbl.replace seen k ()
    | _ -> Alcotest.fail "expected put"
  done

let test_ycsb_a_mix () =
  let g = Ycsb.create ~mix:Ycsb.A ~loaded:1_000 () in
  let puts, gets, _, _ = count_ops g 10_000 in
  Alcotest.(check bool) "~50% gets" true (near ~pct:50 ~of_total:10_000 gets);
  Alcotest.(check bool) "~50% updates" true (near ~pct:50 ~of_total:10_000 puts)

let test_ycsb_b_mix () =
  let g = Ycsb.create ~mix:Ycsb.B ~loaded:1_000 () in
  let puts, gets, _, _ = count_ops g 10_000 in
  Alcotest.(check bool) "~95% gets" true (near ~pct:95 ~of_total:10_000 gets);
  Alcotest.(check bool) "~5% updates" true (near ~pct:5 ~of_total:10_000 puts)

let test_ycsb_c_all_gets () =
  let g = Ycsb.create ~mix:Ycsb.C ~loaded:1_000 () in
  let puts, gets, rmws, _ = count_ops g 2_000 in
  Alcotest.(check int) "all gets" 2_000 gets;
  Alcotest.(check int) "no writes" 0 (puts + rmws)

let test_ycsb_f_mix () =
  let g = Ycsb.create ~mix:Ycsb.F ~loaded:1_000 () in
  let _, gets, rmws, _ = count_ops g 10_000 in
  Alcotest.(check bool) "~50% gets" true (near ~pct:50 ~of_total:10_000 gets);
  Alcotest.(check bool) "~50% rmw" true (near ~pct:50 ~of_total:10_000 rmws)

let test_ycsb_of_string () =
  List.iter
    (fun m ->
      let name = Ycsb.name m in
      let letter = String.sub name 5 (String.length name - 5) in
      List.iter
        (fun s ->
          Alcotest.(check bool) ("parses " ^ s) true
            (Ycsb.of_string s = Some m))
        [ letter; String.lowercase_ascii letter ])
    Ycsb.all;
  List.iter
    (fun s ->
      Alcotest.(check bool) ("rejects " ^ s) true (Ycsb.of_string s = None))
    [ ""; "G"; "AB"; "YCSB_A"; "load "; "1" ]

let test_ycsb_e_mix () =
  let loaded = 1_000 in
  let g = Ycsb.create ~mix:Ycsb.E ~loaded () in
  let scans = ref 0 and puts = ref 0 and len_sum = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    match Ycsb.next g with
    | Types.Scan (start, len) ->
      incr scans;
      len_sum := !len_sum + len;
      Alcotest.(check bool) "length in 1..100" true (len >= 1 && len <= 100);
      (* start keys come from the loaded universe *)
      let found = ref false in
      for i = 0 to loaded + Ycsb.inserted g - 1 do
        if Int64.equal (Keyspace.key_of_index i) start then found := true
      done;
      Alcotest.(check bool) "start key in universe" true !found
    | Types.Put _ -> incr puts
    | _ -> Alcotest.fail "unexpected op in E"
  done;
  Alcotest.(check bool) "~95% scans" true (near ~pct:95 ~of_total:n !scans);
  Alcotest.(check bool) "~5% inserts" true (near ~pct:5 ~of_total:n !puts);
  (* uniform 1..100 lengths: mean near 50.5 *)
  let mean = float_of_int !len_sum /. float_of_int !scans in
  Alcotest.(check bool)
    (Printf.sprintf "mean scan length ~50 (%.1f)" mean)
    true
    (mean > 45.0 && mean < 56.0)

let test_ycsb_d_recency () =
  let loaded = 100_000 in
  let g = Ycsb.create ~mix:Ycsb.D ~loaded () in
  let recent = ref 0 and total_gets = ref 0 in
  for _ = 1 to 5_000 do
    match Ycsb.next g with
    | Types.Get k ->
      incr total_gets;
      (* reverse-map by scanning the recent window *)
      let ninserted = Ycsb.inserted g in
      let window = max 256 (ninserted / 1000) in
      let is_recent = ref false in
      for i = ninserted - (2 * window) to ninserted - 1 do
        if i >= 0 && Int64.equal (Keyspace.key_of_index i) k then
          is_recent := true
      done;
      if !is_recent then incr recent
    | Types.Put _ -> ()
    | _ -> Alcotest.fail "unexpected op in D"
  done;
  Alcotest.(check bool)
    (Printf.sprintf "gets target recent keys (%d/%d)" !recent !total_gets)
    true
    (!recent > !total_gets * 9 / 10)

let test_ycsb_existing_keys_valid () =
  let loaded = 500 in
  let g = Ycsb.create ~mix:Ycsb.C ~loaded () in
  for _ = 1 to 1_000 do
    match Ycsb.next g with
    | Types.Get k ->
      (* every requested key belongs to the loaded universe *)
      let found = ref false in
      for i = 0 to loaded - 1 do
        if Int64.equal (Keyspace.key_of_index i) k then found := true
      done;
      Alcotest.(check bool) "key in universe" true !found
    | _ -> Alcotest.fail "expected get"
  done

let test_ycsb_names () =
  Alcotest.(check int) "seven workloads" 7 (List.length Ycsb.all);
  Alcotest.(check string) "load name" "YCSB_LOAD" (Ycsb.name Ycsb.Load);
  List.iter
    (fun m ->
      Alcotest.(check bool) "has description" true
        (String.length (Ycsb.description m) > 0))
    Ycsb.all


(* ---------------------------------- Trace -------------------------------- *)

let test_trace_record_replay () =
  let g = Ycsb.create ~seed:4 ~mix:Ycsb.A ~loaded:100 () in
  let t = Workload.Trace.record ~n:500 ~gen:(fun () -> Ycsb.next g) in
  Alcotest.(check int) "length" 500 (Workload.Trace.length t);
  let next = Workload.Trace.replayer t in
  let count = ref 0 in
  let rec drain () =
    match next () with
    | Some op ->
      Alcotest.(check bool) "same op" true (op = Workload.Trace.get t !count);
      incr count;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "replayed all" 500 !count;
  Alcotest.(check bool) "exhausted stays exhausted" true (next () = None)

let test_trace_save_load_roundtrip () =
  let ops =
    [ Types.Put (1L, 8); Types.Get 2L; Types.Delete 3L;
      Types.Read_modify_write (4L, 100); Types.Put (Int64.minus_one, 0) ]
  in
  let t = Workload.Trace.of_ops ops in
  let path = Filename.temp_file "trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Workload.Trace.save t path;
      let back = Workload.Trace.load path in
      Alcotest.(check int) "length" (List.length ops)
        (Workload.Trace.length back);
      List.iteri
        (fun i op ->
          Alcotest.(check bool)
            (Printf.sprintf "op %d survives" i)
            true
            (op = Workload.Trace.get back i))
        ops)

let test_trace_load_rejects_garbage () =
  let path = Filename.temp_file "trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "P 1 8\nnot a trace line\n";
      close_out oc;
      Alcotest.(check bool) "malformed rejected" true
        (try
           ignore (Workload.Trace.load path);
           false
         with Failure _ -> true))

let test_trace_get_bounds () =
  let t = Workload.Trace.of_ops [ Types.Get 1L ] in
  Alcotest.check_raises "oob" (Invalid_argument "Trace.get") (fun () ->
      ignore (Workload.Trace.get t 1))

let test_trace_drives_store () =
  (* a recorded trace replays bit-identically into two store instances *)
  let g = Ycsb.create ~seed:9 ~mix:Ycsb.F ~loaded:200 () in
  let t = Workload.Trace.record ~n:2_000 ~gen:(fun () -> Ycsb.next g) in
  let run () =
    let cfg =
      { Chameleondb.Config.default with
        Chameleondb.Config.shards = 4;
        memtable_slots = 32 }
    in
    let db = Chameleondb.Store.create ~cfg () in
    let store = Chameleondb.Store.store db in
    let clock = Pmem_sim.Clock.create () in
    Workload.Trace.iter t (fun op ->
        Kv_common.Store_intf.apply store clock op);
    Pmem_sim.Clock.now clock
  in
  Alcotest.(check (float 0.0)) "deterministic simulated time" (run ()) (run ())

let () =
  Alcotest.run "workload"
    [ ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed matters" `Quick test_rng_seed_matters;
          Alcotest.test_case "copy" `Quick test_rng_copy_independent;
          Alcotest.test_case "int 0 rejected" `Quick test_rng_int_zero_rejected;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          QCheck_alcotest.to_alcotest prop_rng_int_range;
          QCheck_alcotest.to_alcotest prop_rng_float_range ] );
      ( "zipf",
        [ Alcotest.test_case "rank 0 most popular" `Quick
            test_zipf_rank0_most_popular;
          Alcotest.test_case "grow" `Quick test_zipf_grow;
          Alcotest.test_case "invalid n" `Quick test_zipf_invalid;
          QCheck_alcotest.to_alcotest prop_zipf_in_range;
          QCheck_alcotest.to_alcotest prop_zipf_scrambled_range ] );
      ( "trace",
        [ Alcotest.test_case "record and replay" `Quick
            test_trace_record_replay;
          Alcotest.test_case "save/load roundtrip" `Quick
            test_trace_save_load_roundtrip;
          Alcotest.test_case "malformed input rejected" `Quick
            test_trace_load_rejects_garbage;
          Alcotest.test_case "get bounds" `Quick test_trace_get_bounds;
          Alcotest.test_case "drives a store deterministically" `Quick
            test_trace_drives_store ] );
      ( "keyspace",
        [ Alcotest.test_case "nonzero and distinct" `Quick
            test_keyspace_nonzero_distinct;
          Alcotest.test_case "unique_stream bounds" `Quick
            test_unique_stream_bounds ] );
      ( "ycsb",
        [ Alcotest.test_case "LOAD all puts" `Quick test_ycsb_load_all_puts;
          Alcotest.test_case "LOAD unique keys" `Quick
            test_ycsb_load_unique_keys;
          Alcotest.test_case "A mix" `Quick test_ycsb_a_mix;
          Alcotest.test_case "B mix" `Quick test_ycsb_b_mix;
          Alcotest.test_case "C all gets" `Quick test_ycsb_c_all_gets;
          Alcotest.test_case "F mix" `Quick test_ycsb_f_mix;
          Alcotest.test_case "E mix: scans and inserts" `Quick
            test_ycsb_e_mix;
          Alcotest.test_case "D targets recent keys" `Quick
            test_ycsb_d_recency;
          Alcotest.test_case "keys from universe" `Quick
            test_ycsb_existing_keys_valid;
          Alcotest.test_case "names/descriptions" `Quick test_ycsb_names;
          Alcotest.test_case "of_string" `Quick test_ycsb_of_string ] ) ]
