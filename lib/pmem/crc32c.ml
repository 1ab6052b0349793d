(* Software CRC32C (Castagnoli, reflected polynomial 0x82F63B78) — the
   checksum real Pmem stores use because SSE4.2 computes it at ~1 B/cycle.
   The simulation needs the value (for integrity tests) and charges the
   cost separately (callers advance a clock by [Cost_model.crc_ns_per_byte]).
   The host cost is still paid on every run build, vlog record and scan
   verification, so the kernel is slicing-by-8 over native ints: eight
   256-entry tables, eight bytes per step read as four unboxed 16-bit
   loads, and no allocation anywhere. *)

let poly = 0x82F63B78

(* [tables.(k * 256 + n)]: the CRC of byte [n] followed by [k] zero bytes,
   so eight table lookups advance the register over eight input bytes. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then poly lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let empty = 0l

let u16 = Bytes.get_uint16_le

let[@inline] step c b =
  Array.unsafe_get tables ((c lxor b) land 0xFF) lxor (c lsr 8)

(* [c] is the pre-inverted register, a 32-bit value in a native int. *)
let update_int c buf ~off ~len =
  if len > 0 && (off < 0 || off > Bytes.length buf - len) then
    invalid_arg "Crc32c.update";
  let c = ref c and i = ref off in
  let stop8 = off + len - 8 in
  while !i <= stop8 do
    let p = !i in
    let lo = !c lxor (u16 buf p lor (u16 buf (p + 2) lsl 16)) in
    let hi = u16 buf (p + 4) lor (u16 buf (p + 6) lsl 16) in
    c :=
      Array.unsafe_get tables ((7 * 256) + (lo land 0xFF))
      lxor Array.unsafe_get tables ((6 * 256) + ((lo lsr 8) land 0xFF))
      lxor Array.unsafe_get tables ((5 * 256) + ((lo lsr 16) land 0xFF))
      lxor Array.unsafe_get tables ((4 * 256) + (lo lsr 24))
      lxor Array.unsafe_get tables ((3 * 256) + (hi land 0xFF))
      lxor Array.unsafe_get tables ((2 * 256) + ((hi lsr 8) land 0xFF))
      lxor Array.unsafe_get tables (256 + ((hi lsr 16) land 0xFF))
      lxor Array.unsafe_get tables (hi lsr 24);
    i := p + 8
  done;
  for p = !i to off + len - 1 do
    c := step !c (Char.code (Bytes.unsafe_get buf p))
  done;
  !c

let[@inline] to_reg crc = Int32.to_int crc land 0xFFFF_FFFF lxor 0xFFFF_FFFF
let[@inline] of_reg c = Int32.of_int (c lxor 0xFFFF_FFFF)

let[@inline] update crc buf ~off ~len =
  of_reg (update_int (to_reg crc) buf ~off ~len)

let bytes ?(crc = empty) b = update crc b ~off:0 ~len:(Bytes.length b)

let int64 crc v =
  let c = ref (to_reg crc) in
  for i = 0 to 7 do
    c := step !c (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF)
  done;
  of_reg !c

(* Same bytes as [int64 crc (Int64.of_int v)]: [asr] supplies the sign
   extension from 63 to 64 bits in the top byte. *)
let int crc v =
  let c = ref (to_reg crc) in
  for i = 0 to 7 do
    c := step !c ((v asr (8 * i)) land 0xFF)
  done;
  of_reg !c
