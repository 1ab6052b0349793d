(** Compact binary wire codec for the KV serving layer.

    Frame layout: 1-byte magic, 4-byte little-endian body length, body.
    A body is one tagged message: a request (get / put / delete / batch)
    or a reply.  The same framing runs in both directions and on both
    paths — the simulated scheduler ({!Server}) and the real Unix-socket
    endpoint ({!Endpoint}) — so the bytes a load generator synthesises are
    exactly the bytes a live client sends.

    Decoding is incremental and total: {!feed} accepts chunks split at any
    byte boundary, {!next} yields messages as they complete, and malformed
    input (bad magic, unknown tag, oversized or truncated frame, trailing
    garbage, nested batch) poisons the decoder with [`Corrupt] instead of
    raising. *)

type key = Kv_common.Types.key

type req =
  | Get of key
  | Put of key * bytes
  | Delete of key
  | Batch of req list  (** one frame, several ops; may not nest *)
  | Scan of key * int
      (** ordered range scan: start key (inclusive) and entry limit; the
          limit must lie in [1, {!max_batch}] so one reply frame always
          fits the result *)

type reply =
  | Ok                 (** put / delete acknowledged *)
  | Value of bytes     (** get hit with materialized payload *)
  | Hit of int         (** get hit, value length only (accounting stores) *)
  | Miss
  | Shed               (** rejected by admission control *)
  | Corrupted          (** the key's newest record failed verification:
                           an explicit integrity error, not a miss *)
  | Not_owner of int
      (** routing refusal: this node does not own the key's shard; the
          payload is a redirect hint — the id of a node that does.  A node
          never answers for a range it does not own, so stale routing
          tables surface as an explicit redirect, not wrong data. *)
  | Err of string
  | Replies of reply list  (** one per batched op; may not nest *)
  | Values of (key * int * bytes option) list
      (** scan result, ascending key order: (key, value length, payload);
          the payload is [None] when the store answers locations without
          materialising values (accounting stores) *)

type hdr = {
  h_req_id : int;
      (** unique per client op (u32 on the wire): nodes deduplicate write
          applies by it, so a duplicated or retried frame can never
          double-apply *)
  h_deadline_ns : float;
      (** per-attempt latency budget the router enforces; must be finite
          or [infinity], never negative *)
}

type msg =
  | Request of req
  | Tagged of hdr * req
      (** a request carrying the defensive-RPC envelope *)
  | Reply of reply

val max_body_bytes : int
(** Frames larger than this are rejected as corrupt (1 MiB). *)

val max_batch : int
(** Maximum ops per batch frame. *)

val header_bytes : int
(** Frame header size (magic + length). *)

(** {1 Encoding} — total for well-formed values; raises [Invalid_argument]
    on nested batches or bodies over {!max_body_bytes}. *)

val encode_request : req -> bytes
val encode_reply : reply -> bytes

val encode_tagged : hdr -> req -> bytes
(** A request frame with the defensive-RPC envelope (request id +
    deadline) ahead of the request body. *)

val encode : msg -> bytes

(** {1 Incremental decoding} *)

type decoder

val decoder : unit -> decoder

val feed : decoder -> bytes -> off:int -> len:int -> unit
(** Append a chunk.  Chunks may split frames at any byte.  Raises
    [Invalid_argument] on an out-of-bounds slice; never raises on content. *)

val feed_bytes : decoder -> bytes -> unit

val next : decoder -> [ `Msg of msg | `Await | `Corrupt of string ]
(** Pull the next complete message.  [`Await] means feed more bytes.
    [`Corrupt] is sticky: the connection must be dropped. *)


(** {1 Utilities} *)

val ops_in_req : req -> int
(** Number of primitive ops (1 for singles, batch size for batches). *)

val puts_in_req : req -> int
(** Number of write ops (puts + deletes), the admission-control unit. *)

val pp_req : Format.formatter -> req -> unit
val pp_reply : Format.formatter -> reply -> unit
