(** Open- and closed-loop load generation for the serving layer.

    Open-loop schedules fix every intended arrival time before the run
    (Poisson or square-wave burst process), so service latency recorded by
    {!Server} from those times is free of coordinated omission.  Arrivals
    carry pre-encoded {!Proto} frames, exercising the codec end to end. *)

type process =
  | Poisson of { rate_mops : float }
      (** exponential gaps at [rate_mops] million requests/s *)
  | Square of {
      base_mops : float;
      burst_mops : float;
      period_ns : float;
      duty : float;  (** fraction of each period spent at the burst rate *)
    }

val rate_at : process -> elapsed_ns:float -> float

val open_loop :
  ?seed:int ->
  ?conns:int ->
  ?conn_base:int ->
  process:process ->
  reqgen:(Workload.Rng.t -> Proto.req) ->
  duration_ns:float ->
  start_at:float ->
  unit ->
  Server.arrival array
(** Deterministic arrival schedule covering [duration_ns], requests spread
    round-robin over [conns] connections numbered from [conn_base]. *)

val merge : Server.arrival array list -> Server.arrival array
(** Merge schedules (e.g. a steady get stream and a bursty put stream on
    disjoint connection ranges) into one stream sorted by arrival time. *)

val closed_loop :
  ?seed:int ->
  conns:int ->
  reqs_per_conn:int ->
  reqgen:(Workload.Rng.t -> Proto.req) ->
  unit ->
  Server.closed
(** Classic closed-loop clients for comparison: each connection issues its
    next request when the previous reply lands, [reqs_per_conn] times. *)

val mixed_reqgen :
  n_keys:int -> get_frac:float -> vlen:int -> Workload.Rng.t -> Proto.req
(** Uniform keys over a preloaded universe of [n_keys]; [get_frac] reads,
    writes carrying [vlen]-byte values. *)
