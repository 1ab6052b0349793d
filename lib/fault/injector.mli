(** Crash-fault injection over {!Pmem_sim.Device}.

    An injector installs the device's persist hook and, when armed, raises
    {!Crash_injected} just before the [after]-th persist-class operation
    (optionally restricted to one {!Kv_common.Fault_point.site}).  Because
    the hook fires before the write takes effect, the exception models a
    power cut between two durable writes; unwinding then leaves the store's
    persistent image exactly as a real crash would (DRAM state is discarded
    by the store's own [crash]). *)

exception Crash_injected

type t

val attach : Pmem_sim.Device.t -> t
(** Install the persist hook on the device.  The injector starts disarmed. *)

val detach : t -> unit
(** Remove the persist hook and any tear function. *)

val arm : t -> ?site:Kv_common.Fault_point.site -> after:int -> unit -> unit
(** Crash at the [after]-th matching persist event from now (0 = the very
    next one).  Without [site], any site matches.  Auto-disarms on firing. *)

val observe : t -> unit
(** Count persist events per site without crashing (used for profiling a
    workload to enumerate crash points). *)

val disarm : t -> unit

val fired_site : t -> Kv_common.Fault_point.site option
(** Site of the last injected crash, reset by {!arm}. *)

val counts : t -> (Kv_common.Fault_point.site * int) list
(** Persist-class operations seen per site while armed or observing. *)

val set_tear : t -> seed:int -> keep_prob:float -> unit
(** Install a deterministic torn-write function: each 256 B unit of
    unpersisted data independently survives the next crash with probability
    [keep_prob], decided by hashing [(seed, unit offset)]. *)

val clear_tear : t -> unit
