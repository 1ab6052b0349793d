(* Ordered k-way merge streams — the engine behind every store's [scan].

   A [stream] is a pull iterator yielding (key, loc) pairs in ascending
   {!Types.key_compare} order.  [merge] stitches several streams into one,
   with newest-wins shadowing: when multiple streams carry the same key,
   the stream earliest in the list supplies the binding and the others
   discard theirs.  Per-shard scans list their sources newest first
   (MemTable, ABI, dumps/upper by recency, last level); the global scan
   then merges the per-shard streams, whose key sets are disjoint.

   Tombstones and quarantine markers flow through [merge] — they must,
   to mask older versions — and are dropped at the very end by [live].
   A [`Corrupt] from any underlying cursor is fail-stop for the whole
   merged stream: we cannot know which keys the broken run would have
   contributed, so the scan refuses to fabricate a partial answer. *)

module Clock = Pmem_sim.Clock
module Cost_model = Pmem_sim.Cost_model

type event = Next of (Types.key * Types.loc) | Done | Error

type stream = unit -> event

let of_sorted entries =
  let r = ref entries in
  fun () ->
    match !r with
    | [] -> Done
    | e :: rest ->
        r := rest;
        Next e

(* Snapshot an unordered iterator-shaped source (DRAM table, hashed run)
   into an ordered stream over the keys in range: the walk is charged per
   entry visited, the sort per kept entry.  The iterator itself charges
   whatever reading the structure costs.

   Kept entries go into flat int arrays, the key split into unsigned 32-bit
   halves so int order is {!Types.key_compare} order.  An index heap built
   in O(n) then yields one entry per pull: a scan pays only for the
   entries it consumes, not for sorting everything in range.  Equal keys
   come out last-visited first. *)
let of_iter clock ~start iter =
  let cap = ref 256 and n = ref 0 and visited = ref 0 in
  let hi = ref (Array.make !cap 0) and lo = ref (Array.make !cap 0) in
  let locs = ref (Array.make !cap 0) in
  let grow a =
    let b = Array.make (2 * !cap) 0 in
    Array.blit !a 0 b 0 !cap;
    b
  in
  iter (fun k l ->
      incr visited;
      if Types.key_compare k start >= 0 then begin
        if !n = !cap then begin
          hi := grow hi;
          lo := grow lo;
          locs := grow locs;
          cap := 2 * !cap
        end;
        !hi.(!n) <- Int64.to_int (Int64.shift_right_logical k 32);
        !lo.(!n) <- Int64.to_int k land 0xFFFF_FFFF;
        !locs.(!n) <- l;
        incr n
      end);
  Clock.advance clock
    (float_of_int !visited *. Cost_model.scan_per_entry_ns);
  Clock.advance clock (Cost_model.sort_per_key_ns *. float_of_int !n);
  let hi = !hi and lo = !lo and locs = !locs in
  (* [before a b]: entry [a] is yielded before entry [b] *)
  let before a b =
    hi.(a) < hi.(b)
    || (hi.(a) = hi.(b) && (lo.(a) < lo.(b) || (lo.(a) = lo.(b) && a > b)))
  in
  let heap = Array.init !n Fun.id and size = ref !n in
  let rec sift i =
    let l = (2 * i) + 1 in
    if l < !size then begin
      let c =
        if l + 1 < !size && before heap.(l + 1) heap.(l) then l + 1 else l
      in
      if before heap.(c) heap.(i) then begin
        let t = heap.(i) in
        heap.(i) <- heap.(c);
        heap.(c) <- t;
        sift c
      end
    end
  in
  for i = (!size / 2) - 1 downto 0 do
    sift i
  done;
  fun () ->
    if !size = 0 then Done
    else begin
      let e = heap.(0) in
      decr size;
      heap.(0) <- heap.(!size);
      sift 0;
      let key =
        Int64.logor (Int64.shift_left (Int64.of_int hi.(e)) 32)
          (Int64.of_int lo.(e))
      in
      Next (key, locs.(e))
    end

let of_cursor cur () =
  match Linear_table.cursor_next cur with
  | `Entry (k, l) -> Next (k, l)
  | `End -> Done
  | `Corrupt -> Error

let merge streams =
  let arr = Array.of_list streams in
  let n = Array.length arr in
  let heads = Array.map (fun s -> s ()) arr in
  let dead = ref false in
  fun () ->
    if !dead then Error
    else if Array.exists (function Error -> true | _ -> false) heads then begin
      dead := true;
      Error
    end
    else begin
      (* smallest head key; on ties the earliest (newest) stream wins *)
      let best = ref None in
      for i = n - 1 downto 0 do
        match heads.(i) with
        | Next (k, _) -> (
            match !best with
            | None -> best := Some (i, k)
            | Some (_, bk) ->
                if Types.key_compare k bk <= 0 then best := Some (i, k))
        | _ -> ()
      done;
      match !best with
      | None -> Done
      | Some (wi, wk) ->
          let won = heads.(wi) in
          (* advance the winner and every stream it shadows at this key *)
          for i = 0 to n - 1 do
            match heads.(i) with
            | Next (k, _) when Int64.equal k wk -> heads.(i) <- arr.(i) ()
            | _ -> ()
          done;
          won
    end

let live stream =
  let rec next () =
    match stream () with
    | Next (_, loc) when not (Types.is_live loc) -> next ()
    | e -> e
  in
  next

let take stream ~limit =
  let rec go acc n =
    if n <= 0 then (List.rev acc, `Ok)
    else
      match stream () with
      | Done -> (List.rev acc, `Ok)
      | Error -> (List.rev acc, `Corrupt)
      | Next e -> go (e :: acc) (n - 1)
  in
  go [] limit
