(** One experiment per table and figure of the paper's evaluation, plus
    ablations and extensions.  Each experiment builds fresh stores, drives
    them through the discrete-event runner, prints the same rows/series the
    paper reports (see DESIGN.md section 4 for the index and EXPERIMENTS.md
    for measured results) and returns its headline metrics and pass/fail
    gates.  [ckv bench] is the single entry point. *)

type outcome = {
  metrics : (string * float) list;
      (** modelled values in emission order, named [part/part/unit] *)
  gates : (string * bool) list;
      (** acceptance checks; the run passes when every gate holds *)
}

type record = {
  id : string;
  seed : int option;    (** [None] when the generator's default was used *)
  quick : bool;
  wall_s : float;
  outcome : outcome;
}
(** One bench-JSON record: an experiment or [ckv] command run. *)

type exp = {
  id : string;          (** e.g. "fig10" *)
  title : string;
  run : Stores.scale -> seed:int -> outcome;
      (** [mph], [batch], [cluster], [chaos], [crash] and [media] derive
          all their seeds from [seed]; the other experiments use fixed
          seeds and ignore it. *)
}

val all : exp list

val ids : unit -> string list

val crash_sweep :
  (Stores.spec * int) list -> Stores.scale -> seed:int -> outcome
(** The [crash] experiment over explicit targets, each a store and the
    DRAM read-cache MiB it was built with (for the repro hint).  Each
    target is swept at [seed]; its cases, crashes fired, recovery crashes
    and violations become metrics, and it gets one
    [<store>/no_violations] gate.  Prints each failing case's repro hint
    and violations. *)

val write_records : string -> record list -> unit
(** The bench-JSON writer: a JSON array with one object per record holding
    [id], [seed], [quick], [wall_s], [metrics] and [gates] (both objects
    keyed by name) and [pass].  Non-finite metrics are written as [null].
    Prints a note on stderr instead of raising if the file cannot be
    written. *)

val run_ids :
  ?exps:exp list -> ?seed:int -> ?bench_json:string -> scale:Stores.scale ->
  string list -> string list
(** Run the experiments of [exps] (default {!all}) with the given ids (all
    when empty) in registry order at [seed] (default 1), print each one's
    gates, optionally write their records to [bench_json], and return the
    failed gates as ["id/gate"].  Raises [Invalid_argument] on an unknown
    id before running anything. *)
