type t = {
  name : string;
  ops : int;
  sim_ns : float;
  latency : Histogram.t;
  pmem_write_bytes : float;
  pmem_read_bytes : float;
  user_bytes : float;
  dram_bytes : float;
}

let make ~name ~ops ~sim_ns ?latency ?(pmem_write_bytes = 0.0)
    ?(pmem_read_bytes = 0.0) ?(user_bytes = 0.0) ?(dram_bytes = 0.0) () =
  let latency = match latency with Some h -> h | None -> Histogram.create () in
  { name; ops; sim_ns; latency; pmem_write_bytes; pmem_read_bytes;
    user_bytes; dram_bytes }

let throughput_mops t =
  if t.sim_ns <= 0.0 then 0.0
  else float_of_int t.ops /. (t.sim_ns /. 1e9) /. 1e6

let write_amplification t =
  if t.user_bytes <= 0.0 then 0.0 else t.pmem_write_bytes /. t.user_bytes

let bandwidth_gbps bytes ns = if ns <= 0.0 then 0.0 else bytes /. ns
(* bytes/ns = GB/s *)

let pmem_write_gbps t = bandwidth_gbps t.pmem_write_bytes t.sim_ns
let pmem_read_gbps t = bandwidth_gbps t.pmem_read_bytes t.sim_ns
