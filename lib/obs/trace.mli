(** Structured tracing over the simulated clocks.

    A single global, bounded ring of trace events.  Spans ({!begin_span} /
    {!end_span} or {!with_span}) nest per virtual thread ([tid]); timestamps
    are taken from the {!Pmem_sim.Clock} passed at the call site, i.e. they
    are {e simulated} nanoseconds, not wall time (see DESIGN.md).

    When disabled (the default) every recording function is a no-op guarded
    by a single flag check, so instrumented fast paths cost nothing
    measurable.  When the ring fills, the oldest events are overwritten and
    counted in {!dropped} — the newest window of activity always survives. *)

type phase = B | E | I | C
(** Span begin / span end / instant / counter sample, mirroring the Chrome
    trace-event phases. *)

type event = {
  ph : phase;
  name : string;
  cat : string;
  ts : float;  (** simulated ns *)
  tid : int;   (** virtual thread: workload threads 0.., background 1000+shard *)
  value : float option;  (** [C] events only *)
}

val enable : ?capacity:int -> unit -> unit
(** Start recording into a fresh ring of [capacity] events (default 65536).
    Raises [Invalid_argument] on a non-positive capacity. *)

val disable : unit -> unit
(** Stop recording.  Already-recorded events remain readable. *)

val enabled : unit -> bool

val clear : unit -> unit
(** Drop all recorded events and reset the dropped-event count. *)

val set_tid : int -> unit
(** Set the current virtual-thread id, used when an emitter passes no
    explicit [?tid].  The discrete-event runner calls this before each
    operation. *)

val begin_span : Pmem_sim.Clock.t -> ?tid:int -> cat:string -> string -> unit
val end_span : Pmem_sim.Clock.t -> ?tid:int -> cat:string -> string -> unit
val instant : Pmem_sim.Clock.t -> ?tid:int -> cat:string -> string -> unit

val counter : Pmem_sim.Clock.t -> ?tid:int -> string -> float -> unit
(** Record a counter sample (rendered as a track in the trace viewer). *)

val with_span :
  Pmem_sim.Clock.t -> ?tid:int -> cat:string -> string -> (unit -> 'a) -> 'a
(** Run a thunk inside a span; the end event is emitted even on exception. *)

val events : unit -> event list
(** Recorded events, oldest first. *)

val length : unit -> int
val dropped : unit -> int
(** Events lost to ring overwrite since {!enable} / {!clear}. *)

val capacity : unit -> int
