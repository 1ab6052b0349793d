type key = int64
type loc = int

let empty_key = 0L
let tombstone = -1
let corrupt_marker = -2
let is_tombstone loc = loc = tombstone
let is_corrupt loc = loc = corrupt_marker
let is_live loc = loc >= 0
let slot_bytes = 16
let key_compare = Int64.unsigned_compare

type op =
  | Put of key * int
  | Get of key
  | Delete of key
  | Read_modify_write of key * int
  | Scan of key * int
