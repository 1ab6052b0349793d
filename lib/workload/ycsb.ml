module Types = Kv_common.Types

type mix = Load | A | B | C | D | E | F

let all = [ Load; A; B; C; D; E; F ]

let name = function
  | Load -> "YCSB_LOAD"
  | A -> "YCSB_A"
  | B -> "YCSB_B"
  | C -> "YCSB_C"
  | D -> "YCSB_D"
  | E -> "YCSB_E"
  | F -> "YCSB_F"

let of_string s =
  List.find_opt (fun m -> name m = "YCSB_" ^ String.uppercase_ascii s) all

let description = function
  | Load -> "100% put"
  | A -> "50% get / 50% update"
  | B -> "95% get / 5% update"
  | C -> "100% get"
  | D -> "Get most recently inserted keys"
  | E -> "95% short scan / 5% insert"
  | F -> "50% get / 50% read-modify-write"

type t = {
  mix : mix;
  rng : Rng.t;
  vlen : int;
  zipf : Zipf.t;
  latest : Zipf.t; (* small-window skew for D *)
  mutable ninserted : int;
}

let create ?(seed = 42) ?(vlen = 8) ~mix ~loaded () =
  let loaded = max 1 loaded in
  { mix;
    rng = Rng.create ~seed;
    vlen;
    zipf = Zipf.create ~n:loaded ();
    latest = Zipf.create ~n:loaded ();
    ninserted = loaded }

let inserted t = t.ninserted

let existing_key t =
  (* scrambled zipfian over the loaded universe *)
  let ix = Zipf.scrambled t.zipf t.rng ~universe:t.ninserted in
  Keyspace.key_of_index ix

let latest_key t =
  (* "latest": the paper's D reads only the most recently inserted keys
     (10 K of a billion); zipfian recency rank within that narrow window *)
  let window = max 256 (t.ninserted / 1000) in
  let rank = Zipf.next t.latest t.rng mod window in
  let ix = t.ninserted - 1 - rank in
  Keyspace.key_of_index (max 0 ix)

let fresh_key t =
  let ix = t.ninserted in
  t.ninserted <- t.ninserted + 1;
  Zipf.grow t.latest t.ninserted;
  Keyspace.key_of_index ix

let next t : Types.op =
  match t.mix with
  | Load -> Types.Put (fresh_key t, t.vlen)
  | A ->
    if Rng.bool t.rng then Types.Get (existing_key t)
    else Types.Put (existing_key t, t.vlen)
  | B ->
    if Rng.int t.rng 100 < 95 then Types.Get (existing_key t)
    else Types.Put (existing_key t, t.vlen)
  | C -> Types.Get (existing_key t)
  | D ->
    if Rng.int t.rng 100 < 95 then Types.Get (latest_key t)
    else Types.Put (fresh_key t, t.vlen)
  | E ->
    (* zipfian start key, short uniform scan length (YCSB's default 1-100) *)
    if Rng.int t.rng 100 < 95 then
      Types.Scan (existing_key t, 1 + Rng.int t.rng 100)
    else Types.Put (fresh_key t, t.vlen)
  | F ->
    if Rng.bool t.rng then Types.Get (existing_key t)
    else Types.Read_modify_write (existing_key t, t.vlen)
