(** Crash-point sweep: enumerate every fault-injection site a store
    declares, crash at the first/middle/last persist event of each across a
    seed matrix, and aggregate the checker verdicts. *)

type case = {
  c_store : string;
  c_seed : int;
  c_site : Kv_common.Fault_point.site;
  c_after : int;
  c_recovery_after : int option;
}

type failure = {
  f_case : case;
  f_violations : string list;
}

type verdict = {
  v_cases : int;
  v_fired : int;
  v_recovery_crashes : int;
  v_failures : failure list;
}

val passed : verdict -> bool

val repro_hint : ?quick:bool -> ?cache_mb:int -> case -> string
(** The [ckv crash] command line that reproduces this exact case.  Pass
    [quick] and [cache_mb] (default off and 0) as the sweep built its
    store, so the replay builds the same store configuration. *)

val run_case :
  make:(unit -> Kv_common.Store_intf.store) ->
  ?ops:int -> ?universe:int -> case -> Checker.outcome
(** One checker case with torn writes; [ops] and [universe] default to
    the checker's 4000 and 400, as in {!run_store}. *)

val run_store :
  name:string ->
  make:(unit -> Kv_common.Store_intf.store) ->
  ?seeds:int list -> ?ops:int -> ?universe:int -> unit -> verdict
(** Sweep one store.  Per seed: profile the workload's persist events, then
    run one checker case per (site, first/middle/last event) pair over
    every fault site the store declares, plus two crash-during-recovery
    cases on the busiest site. *)

val export_case :
  make:(unit -> Kv_common.Store_intf.store) -> dir:string -> case ->
  Checker.outcome * string
(** {!run_case} under {!Obs.Trace}, writing the case's Chrome-trace JSON
    into [dir]; returns the outcome and the path written. *)
