type compaction_scheme = Direct | Level_by_level

type index_kind = Probe | Mph

type t = {
  shards : int;
  memtable_slots : int;
  levels : int;
  ratio : int;
  lf_min : float;
  lf_max : float;
  abi_slots_factor : int;
  compaction : compaction_scheme;
  write_intensive : bool;
  gpm_enabled : bool;
  gpm_threshold_ns : float;
  gpm_max_dumps : int;
  vlog_batch_bytes : int;
  materialize_values : bool;
  abi_enabled : bool;
  cache_bytes : int;
  scrub_budget_bytes : int;
  index_kind : index_kind;
  seed : int;
}

let default =
  { shards = 256;
    memtable_slots = 512;
    levels = 4;
    ratio = 4;
    lf_min = 0.65;
    lf_max = 0.85;
    abi_slots_factor = 64;
    compaction = Direct;
    write_intensive = false;
    gpm_enabled = false;
    gpm_threshold_ns = 2000.0;
    gpm_max_dumps = 1;
    vlog_batch_bytes = 4096;
    materialize_values = false;
    abi_enabled = true;
    cache_bytes = 0;
    scrub_budget_bytes = 1 lsl 20;
    index_kind = Probe;
    seed = 7 }

let abi_load_factor = 0.90

let scaled ?shards ?memtable_slots t =
  let t = match shards with Some s -> { t with shards = s } | None -> t in
  match memtable_slots with
  | Some m -> { t with memtable_slots = m }
  | None -> t

let upper_levels t = t.levels - 1

let rec pow base = function 0 -> 1 | n -> base * pow base (n - 1)

let max_upper_entries t = pow t.ratio (t.levels - 1) * t.memtable_slots

let validate t =
  if t.shards <= 0 then Error "shards must be positive"
  else if t.memtable_slots < 8 then Error "memtable_slots too small"
  else if t.levels < 2 then Error "need at least two levels"
  else if t.ratio < 2 then Error "ratio must be >= 2"
  else if not (0.0 < t.lf_min && t.lf_min <= t.lf_max && t.lf_max < 1.0) then
    Error "load-factor band must satisfy 0 < min <= max < 1"
  else if t.cache_bytes < 0 then Error "cache_bytes must be >= 0"
  else if t.scrub_budget_bytes <= 0 then
    Error "scrub_budget_bytes must be positive"
  else begin
    (* the ABI must accommodate the worst-case upper-level content *)
    let abi_capacity =
      abi_load_factor
      *. float_of_int (t.abi_slots_factor * t.memtable_slots)
    in
    let worst = t.lf_max *. float_of_int (max_upper_entries t) in
    if abi_capacity < worst then
      Error
        (Printf.sprintf
           "ABI too small: capacity %.0f < worst-case upper content %.0f"
           abi_capacity worst)
    else Ok ()
  end
