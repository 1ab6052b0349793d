module Clock = Pmem_sim.Clock

type phase = B | E | I | C

type event = {
  ph : phase;
  name : string;
  cat : string;
  ts : float; (* simulated ns *)
  tid : int;
  value : float option; (* C (counter) events only *)
}

(* One global trace: the whole simulation is single-OS-threaded, virtual
   threads are distinguished by the [tid] carried on every event.  A bounded
   ring keeps the newest events; the oldest are overwritten and counted in
   [dropped]. *)
type state = {
  mutable buf : event array;
  mutable cap : int;
  mutable start : int;
  mutable len : int;
  mutable dropped : int;
  mutable on : bool;
  mutable cur_tid : int;
}

let dummy = { ph = I; name = ""; cat = ""; ts = 0.0; tid = 0; value = None }

let st =
  { buf = [||]; cap = 0; start = 0; len = 0; dropped = 0; on = false;
    cur_tid = 0 }

let enabled () = st.on
let default_capacity = 1 lsl 16

let enable ?(capacity = default_capacity) () =
  if capacity <= 0 then
    invalid_arg "Obs.Trace.enable: capacity must be positive";
  st.buf <- Array.make capacity dummy;
  st.cap <- capacity;
  st.start <- 0;
  st.len <- 0;
  st.dropped <- 0;
  st.on <- true

let disable () = st.on <- false

let clear () =
  st.start <- 0;
  st.len <- 0;
  st.dropped <- 0

let set_tid tid = st.cur_tid <- tid

let push ev =
  if st.len < st.cap then begin
    st.buf.((st.start + st.len) mod st.cap) <- ev;
    st.len <- st.len + 1
  end
  else begin
    st.buf.(st.start) <- ev;
    st.start <- (st.start + 1) mod st.cap;
    st.dropped <- st.dropped + 1
  end

let emit clock ph ?tid ~cat name =
  let tid = match tid with Some t -> t | None -> st.cur_tid in
  push { ph; name; cat; ts = Clock.now clock; tid; value = None }

let begin_span clock ?tid ~cat name =
  if st.on then emit clock B ?tid ~cat name

let end_span clock ?tid ~cat name =
  if st.on then emit clock E ?tid ~cat name

let instant clock ?tid ~cat name =
  if st.on then emit clock I ?tid ~cat name

let counter clock ?tid name v =
  if st.on then begin
    let tid = match tid with Some t -> t | None -> st.cur_tid in
    push
      { ph = C; name; cat = "counter"; ts = Clock.now clock; tid;
        value = Some v }
  end

let with_span clock ?tid ~cat name f =
  if not st.on then f ()
  else begin
    begin_span clock ?tid ~cat name;
    match f () with
    | r ->
      end_span clock ?tid ~cat name;
      r
    | exception e ->
      end_span clock ?tid ~cat name;
      raise e
  end

let events () = List.init st.len (fun i -> st.buf.((st.start + i) mod st.cap))
let length () = st.len
let dropped () = st.dropped
let capacity () = st.cap
