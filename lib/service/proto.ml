(* Compact binary wire codec.

   Frame layout:  magic 0xC7 | body length (u32 LE) | body
   Body layout:   tag byte | tag-specific payload

   The decoder is incremental: feed it arbitrary byte chunks (network
   reads, torn at any split point) and pull complete messages as they
   become available.  Malformed input — bad magic, unknown tag, length
   overflow, truncated or over-long body, nested batch — marks the decoder
   corrupt; it never raises on hostile bytes, and a corrupt connection
   stays corrupt (the transport must drop it). *)

type key = Kv_common.Types.key

type req =
  | Get of key
  | Put of key * bytes
  | Delete of key
  | Batch of req list
  | Scan of key * int  (* start key, limit (1..max_batch) *)

type reply =
  | Ok
  | Value of bytes
  | Hit of int
  | Miss
  | Shed
  | Corrupted
  | Not_owner of int
  | Err of string
  | Replies of reply list
  | Values of (key * int * bytes option) list
      (* (key, vlen, value) per scanned entry; value is [None] when the
         server answers locations without materialising payloads *)

(* Defensive-RPC envelope: a request id for node-side write dedup and a
   latency budget the router turns into per-attempt deadlines. *)
type hdr = { h_req_id : int; h_deadline_ns : float }

type msg = Request of req | Tagged of hdr * req | Reply of reply

let magic = '\xC7'
let header_bytes = 5
let max_body_bytes = 1 lsl 20
let max_batch = 1024

(* tags *)
let t_get = 0x01
let t_put = 0x02
let t_delete = 0x03
let t_batch = 0x04
let t_scan = 0x05
let t_tagged = 0x06
let t_ok = 0x11
let t_value = 0x12
let t_hit = 0x13
let t_miss = 0x14
let t_shed = 0x15
let t_err = 0x16
let t_replies = 0x17
let t_corrupted = 0x18
let t_not_owner = 0x19
let t_values = 0x1A

(* ------------------------------ encoding ------------------------------ *)

let add_u32 b n = Buffer.add_int32_le b (Int32.of_int n)

let rec add_req ?(top = true) b = function
  | Get key ->
    Buffer.add_uint8 b t_get;
    Buffer.add_int64_le b key
  | Put (key, v) ->
    Buffer.add_uint8 b t_put;
    Buffer.add_int64_le b key;
    add_u32 b (Bytes.length v);
    Buffer.add_bytes b v
  | Delete key ->
    Buffer.add_uint8 b t_delete;
    Buffer.add_int64_le b key
  | Batch reqs ->
    if not top then invalid_arg "Proto: nested Batch";
    if List.length reqs > max_batch then invalid_arg "Proto: batch too large";
    Buffer.add_uint8 b t_batch;
    Buffer.add_uint16_le b (List.length reqs);
    List.iter (add_req ~top:false b) reqs
  | Scan (key, limit) ->
    if limit < 1 || limit > max_batch then
      invalid_arg "Proto: scan limit out of range";
    Buffer.add_uint8 b t_scan;
    Buffer.add_int64_le b key;
    Buffer.add_uint16_le b limit

let rec add_reply ?(top = true) b = function
  | Ok -> Buffer.add_uint8 b t_ok
  | Value v ->
    Buffer.add_uint8 b t_value;
    add_u32 b (Bytes.length v);
    Buffer.add_bytes b v
  | Hit vlen ->
    Buffer.add_uint8 b t_hit;
    add_u32 b vlen
  | Miss -> Buffer.add_uint8 b t_miss
  | Shed -> Buffer.add_uint8 b t_shed
  | Corrupted -> Buffer.add_uint8 b t_corrupted
  | Not_owner node ->
    if node < 0 || node > 0xFFFF then invalid_arg "Proto: node id out of range";
    Buffer.add_uint8 b t_not_owner;
    Buffer.add_uint16_le b node
  | Err m ->
    Buffer.add_uint8 b t_err;
    add_u32 b (String.length m);
    Buffer.add_string b m
  | Replies rs ->
    if not top then invalid_arg "Proto: nested Replies";
    if List.length rs > max_batch then invalid_arg "Proto: batch too large";
    Buffer.add_uint8 b t_replies;
    Buffer.add_uint16_le b (List.length rs);
    List.iter (add_reply ~top:false b) rs
  | Values entries ->
    if List.length entries > max_batch then
      invalid_arg "Proto: too many scan entries";
    Buffer.add_uint8 b t_values;
    Buffer.add_uint16_le b (List.length entries);
    List.iter
      (fun (key, vlen, v) ->
        if vlen < 0 || vlen > max_body_bytes then
          invalid_arg "Proto: scan entry vlen out of range";
        Buffer.add_int64_le b key;
        add_u32 b vlen;
        match v with
        | None -> Buffer.add_uint8 b 0
        | Some v ->
          Buffer.add_uint8 b 1;
          add_u32 b (Bytes.length v);
          Buffer.add_bytes b v)
      entries

let frame body =
  let n = Buffer.length body in
  if n > max_body_bytes then invalid_arg "Proto: frame body too large";
  let b = Buffer.create (header_bytes + n) in
  Buffer.add_char b magic;
  add_u32 b n;
  Buffer.add_buffer b body;
  Buffer.to_bytes b

let encode_request req =
  let b = Buffer.create 32 in
  add_req b req;
  frame b

let encode_reply reply =
  let b = Buffer.create 32 in
  add_reply b reply;
  frame b

let add_hdr b { h_req_id; h_deadline_ns } =
  if h_req_id < 0 || h_req_id > 0xFFFFFFFF then
    invalid_arg "Proto: request id out of range";
  if Float.is_nan h_deadline_ns || h_deadline_ns < 0.0 then
    invalid_arg "Proto: deadline out of range";
  Buffer.add_uint8 b t_tagged;
  add_u32 b h_req_id;
  Buffer.add_int64_le b (Int64.bits_of_float h_deadline_ns)

let encode_tagged hdr req =
  let b = Buffer.create 48 in
  add_hdr b hdr;
  add_req b req;
  frame b

let encode msg =
  match msg with
  | Request r -> encode_request r
  | Tagged (hdr, r) -> encode_tagged hdr r
  | Reply r -> encode_reply r

(* ------------------------------ decoding ------------------------------ *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

type cursor = { cbuf : Bytes.t; mutable cpos : int; climit : int }

let need c n what =
  if c.climit - c.cpos < n then corrupt "truncated %s" what

let read_u8 c what =
  need c 1 what;
  let v = Char.code (Bytes.get c.cbuf c.cpos) in
  c.cpos <- c.cpos + 1;
  v

let read_key c =
  need c 8 "key";
  let v = Bytes.get_int64_le c.cbuf c.cpos in
  c.cpos <- c.cpos + 8;
  v

let read_u16 c what =
  need c 2 what;
  let v = Bytes.get_uint16_le c.cbuf c.cpos in
  c.cpos <- c.cpos + 2;
  v

let read_u32 c what =
  need c 4 what;
  let v = Int32.to_int (Bytes.get_int32_le c.cbuf c.cpos) in
  c.cpos <- c.cpos + 4;
  if v < 0 || v > max_body_bytes then corrupt "%s length %d out of range" what v;
  v

let read_bytes c n what =
  need c n what;
  let v = Bytes.sub c.cbuf c.cpos n in
  c.cpos <- c.cpos + n;
  v

let rec parse_req ?(top = true) c =
  match read_u8 c "request tag" with
  | t when t = t_get -> Get (read_key c)
  | t when t = t_put ->
    let key = read_key c in
    let n = read_u32 c "value" in
    Put (key, read_bytes c n "value")
  | t when t = t_delete -> Delete (read_key c)
  | t when t = t_batch ->
    if not top then corrupt "nested batch";
    let n = read_u16 c "batch count" in
    if n > max_batch then corrupt "batch count %d out of range" n;
    Batch (List.init n (fun _ -> parse_req ~top:false c))
  | t when t = t_scan ->
    let key = read_key c in
    let limit = read_u16 c "scan limit" in
    if limit < 1 || limit > max_batch then
      corrupt "scan limit %d out of range" limit;
    Scan (key, limit)
  | t -> corrupt "unknown request tag 0x%02x" t

let rec parse_reply ?(top = true) c =
  match read_u8 c "reply tag" with
  | t when t = t_ok -> Ok
  | t when t = t_value ->
    let n = read_u32 c "value" in
    Value (read_bytes c n "value")
  | t when t = t_hit -> Hit (read_u32 c "hit length")
  | t when t = t_miss -> Miss
  | t when t = t_shed -> Shed
  | t when t = t_corrupted -> Corrupted
  | t when t = t_not_owner -> Not_owner (read_u16 c "owner node id")
  | t when t = t_err ->
    let n = read_u32 c "error" in
    Err (Bytes.to_string (read_bytes c n "error"))
  | t when t = t_replies ->
    if not top then corrupt "nested batch reply";
    let n = read_u16 c "reply count" in
    if n > max_batch then corrupt "reply count %d out of range" n;
    Replies (List.init n (fun _ -> parse_reply ~top:false c))
  | t when t = t_values ->
    let n = read_u16 c "scan entry count" in
    if n > max_batch then corrupt "scan entry count %d out of range" n;
    Values
      (List.init n (fun _ ->
           let key = read_key c in
           let vlen = read_u32 c "scan entry vlen" in
           match read_u8 c "scan entry flag" with
           | 0 -> (key, vlen, None)
           | 1 ->
             let n = read_u32 c "scan entry value" in
             (key, vlen, Some (read_bytes c n "scan entry value"))
           | f -> corrupt "scan entry flag %d invalid" f))
  | t -> corrupt "unknown reply tag 0x%02x" t

let parse_hdr c =
  ignore (read_u8 c "header tag");
  need c 4 "request id";
  let h_req_id =
    Int32.to_int (Bytes.get_int32_le c.cbuf c.cpos) land 0xFFFFFFFF
  in
  c.cpos <- c.cpos + 4;
  need c 8 "deadline";
  let h_deadline_ns = Int64.float_of_bits (Bytes.get_int64_le c.cbuf c.cpos) in
  c.cpos <- c.cpos + 8;
  if Float.is_nan h_deadline_ns || h_deadline_ns < 0.0 then
    corrupt "deadline out of range";
  { h_req_id; h_deadline_ns }

let parse_body buf ~pos ~len =
  let c = { cbuf = buf; cpos = pos; climit = pos + len } in
  let tag = Char.code (Bytes.get buf pos) in
  let msg =
    if tag = t_tagged then
      let hdr = parse_hdr c in
      Tagged (hdr, parse_req c)
    else if tag <= t_scan then Request (parse_req c)
    else Reply (parse_reply c)
  in
  if c.cpos <> c.climit then
    corrupt "%d trailing bytes in frame" (c.climit - c.cpos);
  msg

type decoder = {
  mutable acc : Bytes.t;   (* accumulation buffer *)
  mutable start : int;     (* first unconsumed byte *)
  mutable fill : int;      (* end of valid data *)
  mutable error : string option;
}

let decoder () =
  { acc = Bytes.create 512; start = 0; fill = 0; error = None }

let feed d b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Proto.feed";
  if d.error = None && len > 0 then begin
    let pending = d.fill - d.start in
    if d.fill + len > Bytes.length d.acc then begin
      (* compact, growing if the pending prefix plus input still overflows *)
      let cap = max (Bytes.length d.acc) (((pending + len) * 2) + 64) in
      let fresh =
        if cap > Bytes.length d.acc then Bytes.create cap else d.acc
      in
      Bytes.blit d.acc d.start fresh 0 pending;
      d.acc <- fresh;
      d.start <- 0;
      d.fill <- pending
    end;
    Bytes.blit b off d.acc d.fill len;
    d.fill <- d.fill + len
  end

let feed_bytes d b = feed d b ~off:0 ~len:(Bytes.length b)

let next d =
  match d.error with
  | Some m -> `Corrupt m
  | None -> (
    let pending = d.fill - d.start in
    if pending < 1 then `Await
    else if Bytes.get d.acc d.start <> magic then begin
      let m =
        Printf.sprintf "bad magic 0x%02x" (Char.code (Bytes.get d.acc d.start))
      in
      d.error <- Some m;
      `Corrupt m
    end
    else if pending < header_bytes then `Await
    else begin
      let blen = Int32.to_int (Bytes.get_int32_le d.acc (d.start + 1)) in
      if blen <= 0 || blen > max_body_bytes then begin
        let m = Printf.sprintf "frame length %d out of range" blen in
        d.error <- Some m;
        `Corrupt m
      end
      else if pending < header_bytes + blen then `Await
      else begin
        match
          parse_body d.acc ~pos:(d.start + header_bytes) ~len:blen
        with
        | msg ->
          d.start <- d.start + header_bytes + blen;
          if d.start = d.fill then begin
            d.start <- 0;
            d.fill <- 0
          end;
          `Msg msg
        | exception Corrupt m ->
          d.error <- Some m;
          `Corrupt m
      end
    end)

(* ------------------------------ utilities ----------------------------- *)

let rec ops_in_req = function
  | Get _ | Put _ | Delete _ | Scan _ -> 1
  | Batch reqs -> List.fold_left (fun a r -> a + ops_in_req r) 0 reqs

let rec puts_in_req = function
  | Get _ | Scan _ -> 0
  | Put _ | Delete _ -> 1
  | Batch reqs -> List.fold_left (fun a r -> a + puts_in_req r) 0 reqs

let rec pp_req ppf = function
  | Get k -> Format.fprintf ppf "Get(%Ld)" k
  | Put (k, v) -> Format.fprintf ppf "Put(%Ld,%dB)" k (Bytes.length v)
  | Delete k -> Format.fprintf ppf "Delete(%Ld)" k
  | Scan (k, n) -> Format.fprintf ppf "Scan(%Ld,%d)" k n
  | Batch rs ->
    Format.fprintf ppf "Batch[%a]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
         pp_req)
      rs

let rec pp_reply ppf = function
  | Ok -> Format.fprintf ppf "Ok"
  | Value v -> Format.fprintf ppf "Value(%dB)" (Bytes.length v)
  | Hit n -> Format.fprintf ppf "Hit(%d)" n
  | Miss -> Format.fprintf ppf "Miss"
  | Shed -> Format.fprintf ppf "Shed"
  | Corrupted -> Format.fprintf ppf "Corrupted"
  | Not_owner node -> Format.fprintf ppf "NotOwner(%d)" node
  | Err m -> Format.fprintf ppf "Err(%s)" m
  | Values es -> Format.fprintf ppf "Values(%d)" (List.length es)
  | Replies rs ->
    Format.fprintf ppf "Replies[%a]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
         pp_reply)
      rs
