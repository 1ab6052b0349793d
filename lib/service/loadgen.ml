(* Load generation for the serving layer.

   Open-loop schedules fix every request's intended arrival time *before*
   the run: a Poisson process (exponential gaps) or a square wave that
   alternates between a base and a burst rate.  Because the schedule never
   waits for the server, a slow server piles requests into the queue and
   the recorded service latency (measured from the intended arrival by
   [Server]) captures the full queueing delay — no coordinated omission.

   Closed-loop mode is the classic benchmark shape for comparison: each
   connection issues its next request only when the previous reply lands.

   Arrivals carry pre-encoded wire frames so every generated request
   exercises the [Proto] codec end to end. *)

module Rng = Workload.Rng

type process =
  | Poisson of { rate_mops : float }
  | Square of {
      base_mops : float;
      burst_mops : float;
      period_ns : float;
      duty : float;  (* fraction of each period spent at burst rate *)
    }

let rate_at process ~elapsed_ns =
  match process with
  | Poisson { rate_mops } -> rate_mops
  | Square { base_mops; burst_mops; period_ns; duty } ->
    let phase = Float.rem elapsed_ns period_ns /. period_ns in
    if phase < duty then burst_mops else base_mops

(* Exponential inter-arrival gap for the instantaneous rate: 1 Mreq/s means
   one request per 1000 simulated ns on average. *)
let gap rng ~rate_mops =
  let mean = 1000.0 /. rate_mops in
  let u = 1.0 -. Rng.float rng in
  -.mean *. log u

let open_loop ?(seed = 42) ?(conns = 4) ?(conn_base = 0) ~process ~reqgen
    ~duration_ns ~start_at () =
  if conns <= 0 then invalid_arg "Loadgen.open_loop: conns <= 0";
  if duration_ns <= 0.0 then invalid_arg "Loadgen.open_loop: duration <= 0";
  let rng = Rng.create ~seed in
  let acc = ref [] in
  let t = ref start_at in
  let i = ref 0 in
  (* first arrival one mean gap in, so the very start is not synchronized *)
  t := !t +. gap rng ~rate_mops:(rate_at process ~elapsed_ns:0.0);
  while !t < start_at +. duration_ns do
    let req = reqgen rng in
    acc :=
      { Server.at = !t;
        conn = conn_base + (!i mod conns);
        frame = Proto.encode_request req }
      :: !acc;
    incr i;
    let r = rate_at process ~elapsed_ns:(!t -. start_at) in
    t := !t +. gap rng ~rate_mops:r
  done;
  let arr = Array.of_list (List.rev !acc) in
  arr

let merge streams =
  let all = Array.concat streams in
  Array.stable_sort
    (fun a b -> compare a.Server.at b.Server.at)
    all;
  all

let closed_loop ?(seed = 42) ~conns ~reqs_per_conn ~reqgen () =
  if conns <= 0 then invalid_arg "Loadgen.closed_loop: conns <= 0";
  let rngs = Hashtbl.create conns in
  let remaining = Hashtbl.create conns in
  let gen ~conn ~now:_ =
    let left =
      match Hashtbl.find_opt remaining conn with
      | Some n -> n
      | None ->
        Hashtbl.replace remaining conn reqs_per_conn;
        reqs_per_conn
    in
    if left <= 0 then None
    else begin
      Hashtbl.replace remaining conn (left - 1);
      let rng =
        match Hashtbl.find_opt rngs conn with
        | Some r -> r
        | None ->
          let r = Rng.create ~seed:(seed + conn) in
          Hashtbl.add rngs conn r;
          r
      in
      Some (reqgen rng)
    end
  in
  { Server.conns; gen }

(* Standard request generator: uniform keys over a preloaded universe,
   [get_frac] reads, writes carrying [vlen]-byte values. *)
let mixed_reqgen ~n_keys ~get_frac ~vlen =
  if n_keys <= 0 then invalid_arg "Loadgen.mixed_reqgen: n_keys <= 0";
  let payload = Bytes.make vlen 'v' in
  fun rng ->
    let key = Workload.Keyspace.key_of_index (Rng.int rng n_keys) in
    if Rng.float rng < get_frac then Proto.Get key else Proto.Put (key, payload)
