module Store_intf = Kv_common.Store_intf
module Fault_point = Kv_common.Fault_point

type case = {
  c_store : string;
  c_seed : int;
  c_site : Fault_point.site;
  c_after : int;
  c_recovery_after : int option;
}

type failure = {
  f_case : case;
  f_violations : string list;
}

type verdict = {
  v_cases : int;
  v_fired : int;  (** cases where the armed crash actually fired *)
  v_recovery_crashes : int;
  v_failures : failure list;
}

let passed v = v.v_failures = []

(* First, middle and last persist events of a site: the edges are where
   ordering bugs live, the middle catches steady state. *)
let afters count =
  if count <= 0 then [] else List.sort_uniq compare [ 0; count / 2; count - 1 ]

let repro_hint ?(quick = false) ?(cache_mb = 0) c =
  Printf.sprintf
    "ckv crash --store %s --seed %d --site %s --at %d%s%s%s" c.c_store
    c.c_seed
    (Fault_point.to_string c.c_site)
    c.c_after
    (match c.c_recovery_after with
    | None -> ""
    | Some r -> Printf.sprintf " --recovery-at %d" r)
    (if cache_mb > 0 then Printf.sprintf " --cache-mb %d" cache_mb else "")
    (if quick then " --quick" else "")

let run_case ~make ?ops ?universe c =
  Checker.run_case ~make ?ops ?universe ~crash_site:c.c_site
    ~crash_after:c.c_after ?recovery_crash_after:c.c_recovery_after
    ~seed:c.c_seed ()

(* Sweep one store: for every seed, profile the workload's persist events,
   then crash at the first/middle/last event of every site the store
   declares, plus crash-during-recovery cases on the busiest site. *)
let run_store ~name ~make ?(seeds = [ 1; 2; 3 ]) ?ops ?universe () =
  let declared = Store_intf.fault_points (make ()) in
  let cases = ref [] in
  List.iter
    (fun seed ->
      let counts = Checker.profile ~make ?ops ?universe ~seed () in
      let count_of site =
        Option.value ~default:0 (List.assoc_opt site counts)
      in
      List.iter
        (fun site ->
          if site <> Fault_point.Recovery then
            List.iter
              (fun after ->
                cases :=
                  { c_store = name; c_seed = seed; c_site = site;
                    c_after = after; c_recovery_after = None }
                  :: !cases)
              (afters (count_of site)))
        declared;
      (* crash-during-recovery: crash the busiest non-recovery site at its
         midpoint, then crash recovery at its 0th / 1st persist event *)
      let busiest =
        List.fold_left
          (fun acc (site, n) ->
            match acc with
            | Some (_, m) when m >= n -> acc
            | _ when site = Fault_point.Recovery -> acc
            | _ when not (List.mem site declared) -> acc
            | _ -> Some (site, n))
          None counts
      in
      match busiest with
      | Some (site, n) when List.mem Fault_point.Recovery declared ->
        List.iter
          (fun r ->
            cases :=
              { c_store = name; c_seed = seed; c_site = site;
                c_after = n / 2; c_recovery_after = Some r }
              :: !cases)
          [ 0; 1 ]
      | Some _ | None -> ())
    seeds;
  let cases = List.rev !cases in
  let fired = ref 0 in
  let recovery_crashes = ref 0 in
  let failures = ref [] in
  List.iter
    (fun c ->
      let o = run_case ~make ?ops ?universe c in
      if o.Checker.crashed then incr fired;
      if o.Checker.recovery_crashed then incr recovery_crashes;
      if o.Checker.violations <> [] then
        failures := { f_case = c; f_violations = o.Checker.violations }
                    :: !failures)
    cases;
  { v_cases = List.length cases;
    v_fired = !fired;
    v_recovery_crashes = !recovery_crashes;
    v_failures = List.rev !failures }

(* Run one case with span tracing enabled and export its Chrome-trace JSON
   into [dir] for offline inspection. *)
let export_case ~make ~dir c =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Obs.Trace.enable ();
  let o = run_case ~make c in
  let path =
    Filename.concat dir
      (Printf.sprintf "crash-%s-seed%d-%s-at%d%s.json" c.c_store c.c_seed
         (Fault_point.to_string c.c_site)
         c.c_after
         (match c.c_recovery_after with
         | None -> ""
         | Some r -> Printf.sprintf "-rec%d" r))
  in
  Obs.Export.write_chrome_trace path;
  Obs.Trace.disable ();
  (o, path)
