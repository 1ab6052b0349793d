(** Aggregated result of one benchmark run: operation counts, simulated
    duration, latency histogram and device-traffic totals.  Experiments build
    these and the table printers render them. *)

type t = {
  name : string;            (** store or configuration label *)
  ops : int;                (** operations completed *)
  sim_ns : float;           (** simulated wall-clock duration, ns *)
  latency : Histogram.t;    (** per-operation simulated latency *)
  pmem_write_bytes : float; (** media bytes written (incl. amplification) *)
  pmem_read_bytes : float;  (** bytes read from the device *)
  user_bytes : float;       (** logical bytes the workload asked to write *)
  dram_bytes : float;       (** resident DRAM footprint at end of run *)
}

val make :
  name:string -> ops:int -> sim_ns:float -> ?latency:Histogram.t ->
  ?pmem_write_bytes:float -> ?pmem_read_bytes:float -> ?user_bytes:float ->
  ?dram_bytes:float -> unit -> t

val throughput_mops : t -> float
(** Million operations per simulated second. *)

val write_amplification : t -> float
(** media bytes written / user bytes (0 when no user bytes). *)

val pmem_write_gbps : t -> float
(** Media write bandwidth achieved over the run, GB/s. *)

val pmem_read_gbps : t -> float
