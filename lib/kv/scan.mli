(** Ordered k-way merge streams — the engine behind every store's [scan].

    A stream yields (key, loc) pairs in ascending {!Types.key_compare}
    order.  {!merge} stitches streams with newest-wins shadowing; {!live}
    drops tombstones and quarantine markers (which must survive the merge
    to mask older versions); {!take} materialises a bounded prefix. *)

type event = Next of (Types.key * Types.loc) | Done | Error

type stream = unit -> event
(** Pull iterator: each call yields the next entry in ascending key order.
    [Error] is fail-stop — once raised, every later pull answers [Error]. *)

val of_sorted : (Types.key * Types.loc) list -> stream
(** The list must already be in ascending {!Types.key_compare} order. *)

val of_iter :
  Pmem_sim.Clock.t -> start:Types.key ->
  ((Types.key -> Types.loc -> unit) -> unit) -> stream
(** Snapshot an unordered iterator-shaped source into an ordered stream of
    its keys [>= start]: the walk is charged per entry visited, the sort
    per kept entry.  The iterator charges its own read costs.  Equal keys
    are yielded in reverse visit order (the last visited first). *)

val of_cursor : Linear_table.cursor -> stream

val merge : stream list -> stream
(** K-way merge.  When several streams carry the same key, the stream
    earliest in the list (the newest source) supplies the binding and the
    shadowed streams discard theirs.  Any underlying [Error] fails the
    whole merged stream: a scan never fabricates a partial answer over a
    broken run. *)

val live : stream -> stream
(** Drop tombstones and quarantine markers; apply only after {!merge}. *)

val take :
  stream -> limit:int -> (Types.key * Types.loc) list * [ `Ok | `Corrupt ]
(** First [limit] entries (fewer if the stream ends).  [`Corrupt] reports
    a fail-stopped stream; the entries already pulled are returned. *)
