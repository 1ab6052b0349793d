(** Rendezvous-hash (HRW) placement over a fixed set of virtual shards.

    A key hashes to one of {!vshards} virtual shards; each virtual shard
    is owned by the {!replicas} member nodes with the highest
    per-(vshard, node) hash scores.  Placement is a pure function of the
    member list, so every router and node computes identical owners with
    no shared metadata.  Members are fixed at {!create}, which ranks every
    vshard's owners once; an explicit per-vshard override (set by
    migration at cutover) takes precedence over that table. *)

type t

val create : vshards:int -> replicas:int -> nodes:int list -> unit -> t
(** Raises [Invalid_argument] on non-positive sizes or fewer nodes than
    replicas. *)

val vshards : t -> int
val replicas : t -> int

val members : t -> int list
(** Current member node ids, sorted. *)

val vshard_of : t -> Kv_common.Types.key -> int
(** The virtual shard owning [key], in [0, vshards).  Salted so it is
    independent of the store-internal shard hash. *)

val preference : t -> int -> int list
(** All members ranked by HRW score for the given vshard (descending). *)

val owners : t -> int -> int list
(** The [replicas] owners of a vshard: the override when one is set,
    otherwise the HRW top-[replicas] prefix of {!preference}, ranked at
    {!create}.  Without an override the same physical list is returned on
    every call. *)

val owners_of_key : t -> Kv_common.Types.key -> int list

val set_override : t -> vshard:int -> int list -> unit
(** Pin a vshard's owner list (migration cutover).  Raises
    [Invalid_argument] unless exactly [replicas] owners are given. *)

val clear_override : t -> vshard:int -> unit
(** Drop a vshard's override: it is owned by its HRW table entry again. *)
