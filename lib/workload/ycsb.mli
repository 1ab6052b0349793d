(** YCSB workload generator (Cooper et al., SoCC'10), Table 5 of the paper.

    Supported mixes:

    - [Load]: 100% put of unique keys
    - [A]: 50% get / 50% update, zipfian
    - [B]: 95% get / 5% update, zipfian
    - [C]: 100% get, zipfian
    - [D]: get most-recently-inserted keys ("latest" distribution, with 5%
      inserts extending the universe)
    - [E]: 95% short range scan (zipfian start key, uniform length 1-100)
      / 5% insert — the mix the paper omits because its hashed stores
      cannot scan; the ordered last level makes it runnable here
    - [F]: 50% get / 50% read-modify-write, zipfian *)

type mix = Load | A | B | C | D | E | F

val all : mix list
val name : mix -> string

val of_string : string -> mix option
(** A mix from its letter ([LOAD], [A] .. [F]), case-insensitively. *)

val description : mix -> string

type t

val create :
  ?seed:int -> ?vlen:int -> mix:mix -> loaded:int -> unit -> t
(** A generator over a store pre-loaded with [loaded] unique keys (indices
    [0, loaded)).  [vlen] is the value size for writes (default 8, as in the
    paper's main experiments). *)

val next : t -> Kv_common.Types.op
(** Produce the next operation.  [Load] mode yields puts of fresh unique
    keys; other mixes choose existing keys per their distribution. *)

val inserted : t -> int
(** Total keys existing after the operations produced so far. *)
