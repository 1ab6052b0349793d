(* Simulated serving pipeline: per-connection decoders feeding a request
   queue, multiplexed onto simulated worker threads.

   The engine is a discrete-event simulation in the same style as
   [Harness.Runner]: the worker whose clock is smallest acts next, so
   shared-device queueing emerges from the Pmem model.  On top of that it
   adds the service dimension the closed-loop runner cannot express:
   requests arrive at *intended* times fixed by the load generator, wait in
   a scheduler queue while workers are busy, and their service latency is
   measured from the intended arrival — queueing delay included — so tails
   are free of coordinated omission.

   Pipeline per request: RX decode (per-connection, serialized on a
   connection clock) -> admission -> scheduler queue -> worker dispatch
   (FIFO or shard-affinity, with request batching) -> store execution ->
   reply encode.  Every stage is attributed via [Obs.Attribution] and the
   queue depth is tracked in [Obs.Counters]. *)

module Clock = Pmem_sim.Clock
module Device = Pmem_sim.Device
module Types = Kv_common.Types
module Store_intf = Kv_common.Store_intf
module Vlog = Kv_common.Vlog
module Hash = Kv_common.Hash
module Histogram = Metrics.Histogram

let c_depth = Obs.Counters.counter "service.queue_depth"
let c_enqueued = Obs.Counters.counter "service.enqueued"
let c_corrupt = Obs.Counters.counter "service.corrupt_frames"
let c_batches = Obs.Counters.counter "service.dispatch_batches"
let c_group_commits = Obs.Counters.counter "service.group_commits"
let c_grouped_writes = Obs.Counters.counter "service.grouped_writes"

type sched = Fifo | Shard_affinity

let sched_name = function
  | Fifo -> "fifo"
  | Shard_affinity -> "shard-affinity"

type costs = {
  byte_ns : float;      (* codec cost per wire byte (RX and TX) *)
  frame_ns : float;     (* fixed per-frame codec cost *)
  dispatch_ns : float;  (* scheduler hand-off, paid once per worker batch *)
}

let default_costs = { byte_ns = 0.25; frame_ns = 120.0; dispatch_ns = 200.0 }

type arrival = { at : float; conn : int; frame : bytes }

type closed = { conns : int; gen : conn:int -> now:float -> Proto.req option }

type window = {
  w_start : float;
  w_reqs : int;
  w_writes : int;
  w_shed : int;
  w_gets : int;
  w_get_p99 : float;  (* windowed p99 get *service* latency *)
}

type stats = {
  submitted : int;       (* requests decoded off connections *)
  executed : int;        (* requests that reached the store *)
  ops_executed : int;    (* primitive ops (batches count their size) *)
  shed : int;            (* rejected by admission control *)
  corrupt : int;         (* connections dropped on codec corruption *)
  start_ns : float;
  end_ns : float;
  service : Histogram.t;     (* finish - intended, all executed requests *)
  get_service : Histogram.t; (* subset: read-only requests *)
  put_service : Histogram.t; (* subset: requests containing a write *)
  queue_wait : Histogram.t;  (* dispatch - ready *)
  get_execute : Histogram.t; (* store-execution stage of read-only reqs *)
  max_depth : int;
  windows : window list;
  counters : (string * float) list;
}

let throughput_mops s =
  let ns = s.end_ns -. s.start_ns in
  if ns <= 0.0 then 0.0 else float_of_int s.ops_executed /. ns *. 1000.0

let shed_rate s =
  let total = s.executed + s.shed in
  if total = 0 then 0.0 else float_of_int s.shed /. float_of_int total

(* ------------------------------------------------------------------ *)

type item = {
  i_intended : float;
  i_ready : float;   (* RX decode complete; eligible for dispatch *)
  i_req : Proto.req;
  i_conn : int;
}

type conn_state = {
  mutable rx_ns : float;      (* connection RX clock *)
  mutable dead : bool;
  decoder : Proto.decoder;
}

(* window accumulator *)
type wacc = {
  mutable a_reqs : int;
  mutable a_writes : int;
  mutable a_shed : int;
  mutable a_gets : int;
  a_get_hist : Histogram.t;
}

(* The store reserves [Types.empty_key] (its free-slot marker): ops on it
   are answered [Err] here and never reach the store.  A scan may still
   start there. *)
let reserved k = Int64.equal k Types.empty_key

let rec first_key = function
  | Proto.Get k | Proto.Put (k, _) | Proto.Delete k | Proto.Scan (k, _) -> k
  | Proto.Batch [] -> 0L
  | Proto.Batch (r :: _) -> first_key r

let run ?(costs = default_costs) ?(sched = Fifo) ?admission ?(batch_max = 8)
    ?(linger_ns = 0.0) ?(window_ns = 2_000_000.0) ?(arrivals = [||]) ?closed
    ~store ~workers ~start_at () =
  if workers <= 0 then invalid_arg "Server.run: workers <= 0";
  if batch_max <= 0 then invalid_arg "Server.run: batch_max <= 0";
  if linger_ns < 0.0 then invalid_arg "Server.run: linger_ns < 0";
  let dev = Store_intf.device store in
  let prev_threads = Device.active_threads dev in
  Device.set_active_threads dev workers;
  let counters_before = Obs.Counters.snapshot () in
  let attr = Obs.Attribution.enabled () in
  let clocks = Array.init workers (fun _ -> Clock.create ~at:start_at ()) in
  (* scheduler queues: one shared for FIFO, one per worker for affinity *)
  let nqueues = match sched with Fifo -> 1 | Shard_affinity -> workers in
  let queues : item Queue.t array = Array.init nqueues (fun _ -> Queue.create ()) in
  let depth = ref 0 and max_depth = ref 0 in
  let conns : (int, conn_state) Hashtbl.t = Hashtbl.create 64 in
  let conn_state c =
    match Hashtbl.find_opt conns c with
    | Some s -> s
    | None ->
      let s = { rx_ns = start_at; dead = false; decoder = Proto.decoder () } in
      Hashtbl.add conns c s;
      s
  in
  (* closed-loop connections inject their next request on completion *)
  let pending : arrival list ref = ref [] in
  let push_pending a =
    let rec ins = function
      | [] -> [ a ]
      | b :: rest when b.at <= a.at -> b :: ins rest
      | rest -> a :: rest
    in
    pending := ins !pending
  in
  (match closed with
  | None -> ()
  | Some { conns = n; gen } ->
    for c = 0 to n - 1 do
      (* closed connections use ids above any open-loop conn id *)
      let conn = 1_000_000 + c in
      match gen ~conn ~now:start_at with
      | Some req ->
        push_pending { at = start_at; conn; frame = Proto.encode_request req }
      | None -> ()
    done);
  let closed_gen conn ~now =
    match closed with
    | Some { gen; _ } when conn >= 1_000_000 -> (
      match gen ~conn ~now with
      | Some req ->
        push_pending { at = now; conn; frame = Proto.encode_request req }
      | None -> ())
    | _ -> ()
  in
  (* stats *)
  let submitted = ref 0 and executed = ref 0 and ops_executed = ref 0 in
  let shed = ref 0 and corrupt = ref 0 in
  let service = Histogram.create () in
  let get_service = Histogram.create () in
  let put_service = Histogram.create () in
  let queue_wait = Histogram.create () in
  let get_execute = Histogram.create () in
  let end_ns = ref start_at in
  let windows : (int, wacc) Hashtbl.t = Hashtbl.create 128 in
  let wacc_of t =
    let ix = int_of_float ((t -. start_at) /. window_ns) in
    match Hashtbl.find_opt windows ix with
    | Some w -> w
    | None ->
      let w =
        { a_reqs = 0; a_writes = 0; a_shed = 0; a_gets = 0;
          a_get_hist = Histogram.create () }
      in
      Hashtbl.add windows ix w;
      w
  in
  (* routing *)
  let queue_of req =
    match sched with
    | Fifo -> queues.(0)
    | Shard_affinity ->
      queues.(Hash.shard_of ~hash:(Hash.mix64 (first_key req)) ~shards:workers)
  in
  let enqueue item =
    Queue.push item (queue_of item.i_req);
    incr depth;
    if !depth > !max_depth then max_depth := !depth;
    Obs.Counters.incr c_enqueued;
    Obs.Counters.add c_depth 1.0
  in
  (* ---------------- ingest: RX decode + admission at arrival ----------- *)
  let ingest (a : arrival) =
    let cs = conn_state a.conn in
    if not cs.dead then begin
      cs.rx_ns <- Float.max cs.rx_ns a.at;
      cs.rx_ns <-
        cs.rx_ns +. (costs.byte_ns *. float_of_int (Bytes.length a.frame));
      Proto.feed_bytes cs.decoder a.frame;
      (* a corrupt stream gets one final Err reply (charged on the RX
         clock, as shed replies are), then the connection closes: the
         decoder state is sticky, so nothing after it can be trusted *)
      let reject msg =
        let rb = Proto.encode_reply (Proto.Err msg) in
        cs.rx_ns <-
          cs.rx_ns +. costs.frame_ns
          +. (costs.byte_ns *. float_of_int (Bytes.length rb));
        if cs.rx_ns > !end_ns then end_ns := cs.rx_ns;
        cs.dead <- true;
        incr corrupt;
        Obs.Counters.incr c_corrupt
      in
      let rec drain () =
        match Proto.next cs.decoder with
        | `Await -> ()
        | `Corrupt m -> reject m
        | `Msg (Proto.Reply _) ->
          (* a client pushing replies at the server is a protocol error *)
          reject "unexpected reply"
        | `Msg (Proto.Request req | Proto.Tagged (_, req)) ->
          cs.rx_ns <- cs.rx_ns +. costs.frame_ns;
          incr submitted;
          let intended = a.at in
          let ready = cs.rx_ns in
          if attr then Obs.Attribution.add Svc_decode (ready -. intended);
          let admitted =
            match admission with
            | None -> true
            | Some adm -> Admission.admit adm ~now:ready req
          in
          if admitted then
            enqueue
              { i_intended = intended; i_ready = ready; i_req = req;
                i_conn = a.conn }
          else begin
            (* shed: the reply is encoded and sent straight back from the
               RX path; the request never occupies a worker *)
            let rb = Proto.encode_reply Proto.Shed in
            cs.rx_ns <-
              cs.rx_ns +. costs.frame_ns
              +. (costs.byte_ns *. float_of_int (Bytes.length rb));
            incr shed;
            let w = wacc_of intended in
            w.a_shed <- w.a_shed + 1;
            if cs.rx_ns > !end_ns then end_ns := cs.rx_ns;
            closed_gen a.conn ~now:cs.rx_ns
          end;
          drain ()
      in
      drain ()
    end
  in
  (* merged arrival stream: the pre-sorted open-loop array + the dynamic
     closed-loop list *)
  let ai = ref 0 in
  let n_arrivals = Array.length arrivals in
  let next_arrival_at () =
    let open_at =
      if !ai < n_arrivals then Some arrivals.(!ai).at else None
    in
    let closed_at = match !pending with [] -> None | a :: _ -> Some a.at in
    match (open_at, closed_at) with
    | None, x -> x
    | x, None -> x
    | Some a, Some b -> Some (Float.min a b)
  in
  let pop_arrival () =
    let take_open () =
      let a = arrivals.(!ai) in
      incr ai;
      a
    in
    match !pending with
    | [] -> take_open ()
    | p :: rest ->
      if !ai < n_arrivals && arrivals.(!ai).at <= p.at then take_open ()
      else begin
        pending := rest;
        p
      end
  in
  let ingest_until t =
    let rec go () =
      match next_arrival_at () with
      | Some at when at <= t ->
        ingest (pop_arrival ());
        go ()
      | _ -> ()
    in
    go ()
  in
  (* ---------------- dispatch + execute on the min-clock worker --------- *)
  let queue_for w =
    match sched with
    | Fifo -> if Queue.is_empty queues.(0) then None else Some queues.(0)
    | Shard_affinity ->
      if not (Queue.is_empty queues.(w)) then Some queues.(w)
      else begin
        (* steal from the deepest backlog *)
        let best = ref (-1) and best_n = ref 0 in
        Array.iteri
          (fun i q ->
            let n = Queue.length q in
            if n > !best_n then begin
              best := i;
              best_n := n
            end)
          queues;
        if !best >= 0 then Some queues.(!best) else None
      end
  in
  let pick w =
    match queue_for w with
    | None -> None
    | Some q ->
      let rec take acc n =
        if n = 0 || Queue.is_empty q then List.rev acc
        else take (Queue.pop q :: acc) (n - 1)
      in
      let batch = take [] batch_max in
      depth := !depth - List.length batch;
      Obs.Counters.add c_depth (-.float_of_int (List.length batch));
      Obs.Counters.incr c_batches;
      Some batch
  in
  let exec_one clock req =
    let rec go top req =
      match req with
      | (Proto.Get k | Proto.Put (k, _) | Proto.Delete k) when reserved k ->
        Proto.Err "reserved key"
      | Proto.Get k -> (
        match Store_intf.read store clock k with
        | { Store_intf.loc = Some loc; _ } ->
          Proto.Hit (Vlog.vlen_at (Store_intf.vlog store) loc)
        | { Store_intf.stage = Store_intf.Corrupt; _ } -> Proto.Corrupted
        | _ -> Proto.Miss)
      | Proto.Put (k, v) ->
        Store_intf.write store clock k
          (Store_intf.Sized (Bytes.length v));
        Proto.Ok
      | Proto.Delete k ->
        Store_intf.delete store clock k;
        Proto.Ok
      | Proto.Scan (start, limit) ->
        (* accounting path: answer key + length, never materialize *)
        let vlog = Store_intf.vlog store in
        Proto.Values
          (List.map
             (fun (k, loc) -> (k, Vlog.vlen_at vlog loc, None))
             (Store_intf.scan store clock ~start ~limit))
      | Proto.Batch reqs ->
        if top then Proto.Replies (List.map (go false) reqs)
        else Proto.Err "nested batch"
    in
    go true req
  in
  (* Per-op service accounting.  Every op inside a [Batch] frame carries
     the frame's intended-arrival stamp — one [service] sample per
     primitive op, all measured from the frame's intended arrival — so a
     grouped commit cannot hide queueing behind batch size (the
     coordinated-omission rule from the open-loop design, applied inside
     the frame). *)
  let record_done item ~dispatched ~t_exec ~finish =
    if finish > !end_ns then end_ns := finish;
    incr executed;
    let nops = Proto.ops_in_req item.i_req in
    ops_executed := !ops_executed + nops;
    let lat = finish -. item.i_intended in
    let record_op sub =
      Histogram.record service lat;
      if Proto.puts_in_req sub > 0 then Histogram.record put_service lat
      else Histogram.record get_service lat
    in
    (match item.i_req with
    | Proto.Batch reqs -> List.iter record_op reqs
    | req -> record_op req);
    let writes = Proto.puts_in_req item.i_req in
    let w = wacc_of item.i_intended in
    w.a_reqs <- w.a_reqs + 1;
    if writes > 0 then w.a_writes <- w.a_writes + 1
    else begin
      Histogram.record get_execute (t_exec -. dispatched);
      w.a_gets <- w.a_gets + 1;
      Histogram.record w.a_get_hist lat
    end;
    closed_gen item.i_conn ~now:finish
  in
  (* A frame the group committer can absorb: a lone Put, or a Batch of
     nothing but Puts.  Its reply is known up front (all acks), so the
     whole run of frames can share one [write_batch] persist fence. *)
  let groupable req =
    match req with
    | Proto.Put (k, v) when not (reserved k) ->
      Some ([ (k, Store_intf.Sized (Bytes.length v)) ], Proto.Ok)
    | Proto.Batch reqs ->
      let rec all acc = function
        | [] -> Some (List.rev acc)
        | Proto.Put (k, v) :: tl when not (reserved k) ->
          all ((k, Store_intf.Sized (Bytes.length v)) :: acc) tl
        | _ -> None
      in
      (match all [] reqs with
      | Some (_ :: _ as puts) ->
        Some (puts, Proto.Replies (List.map (fun _ -> Proto.Ok) reqs))
      | _ -> None)
    | _ -> None
  in
  let process w (batch : item list) =
    let clock = clocks.(w) in
    if Obs.Trace.enabled () then Obs.Trace.set_tid w;
    Clock.advance clock costs.dispatch_ns;
    let wait_ready item =
      ignore (Clock.wait_until clock item.i_ready)
    in
    let note_qwait item ~dispatched =
      let qwait = dispatched -. item.i_ready in
      Histogram.record queue_wait qwait;
      if attr then Obs.Attribution.add Svc_queue qwait
    in
    let encode_finish item reply ~dispatched ~t_exec =
      let rb = Proto.encode_reply reply in
      let t0 = Clock.now clock in
      Clock.advance clock
        (costs.frame_ns +. (costs.byte_ns *. float_of_int (Bytes.length rb)));
      let finish = Clock.now clock in
      if attr then Obs.Attribution.add Svc_encode (finish -. t0);
      record_done item ~dispatched ~t_exec ~finish
    in
    let exec_single item =
      wait_ready item;
      let dispatched = Clock.now clock in
      note_qwait item ~dispatched;
      let reply = exec_one clock item.i_req in
      let t_exec = Clock.now clock in
      if attr then Obs.Attribution.add Svc_execute (t_exec -. dispatched);
      encode_finish item reply ~dispatched ~t_exec
    in
    (* Group commit: a run of write-only frames — possibly from different
       connections — executes as one [write_batch], paying one store
       group commit (one persist fence where the store has one) for the
       whole run.  Acks are encoded after the fence, in frame order. *)
    let exec_group group =
      List.iter (fun (item, _) -> wait_ready item) group;
      let dispatched = Clock.now clock in
      List.iter (fun (item, _) -> note_qwait item ~dispatched) group;
      let puts = List.concat_map (fun (_, (puts, _)) -> puts) group in
      Store_intf.write_batch store clock puts;
      (match group with
      | _ :: _ :: _ ->
        Obs.Counters.incr c_group_commits;
        Obs.Counters.add c_grouped_writes (float_of_int (List.length puts))
      | _ -> ());
      let t_exec = Clock.now clock in
      if attr then Obs.Attribution.add Svc_execute (t_exec -. dispatched);
      List.iter
        (fun (item, (_, reply)) -> encode_finish item reply ~dispatched ~t_exec)
        group
    in
    let rec go = function
      | [] -> ()
      | item :: rest -> (
        match groupable item.i_req with
        | None ->
          exec_single item;
          go rest
        | Some pr ->
          let rec grab acc rest =
            match rest with
            | next :: tl -> (
              match groupable next.i_req with
              | Some pr2 -> grab ((next, pr2) :: acc) tl
              | None -> (List.rev acc, rest))
            | [] -> (List.rev acc, [])
          in
          let group, rest = grab [ (item, pr) ] rest in
          exec_group group;
          go rest)
    in
    go batch
  in
  let min_clock_worker () =
    let best = ref 0 and best_t = ref (Clock.now clocks.(0)) in
    for i = 1 to workers - 1 do
      if Clock.now clocks.(i) < !best_t then begin
        best := i;
        best_t := Clock.now clocks.(i)
      end
    done;
    !best
  in
  (* Linger: with a short queue, hold off dispatch until the oldest
     queued item has waited [linger_ns] since it became ready, ingesting
     arrivals meanwhile so the dispatch batch (and thus the group
     commit) can fill.  A full batch, or the deadline, dispatches. *)
  let linger w tw =
    linger_ns > 0.0 && !depth > 0 && !depth < batch_max
    &&
    match queue_for w with
    | None -> false
    | Some q -> (
      match Queue.peek_opt q with
      | None -> false
      | Some oldest ->
        let deadline = oldest.i_ready +. linger_ns in
        tw < deadline
        && begin
             let until =
               match next_arrival_at () with
               | Some t when t < deadline -> Float.max t tw
               | _ -> deadline
             in
             ignore (Clock.wait_until clocks.(w) until);
             true
           end)
  in
  let rec loop () =
    let w = min_clock_worker () in
    let tw = Clock.now clocks.(w) in
    ingest_until tw;
    if linger w tw then loop ()
    else
      match pick w with
      | Some batch ->
        process w batch;
        loop ()
      | None -> (
        match next_arrival_at () with
        | Some t ->
          (* idle until the next arrival lands *)
          ignore (Clock.wait_until clocks.(w) (Float.max t tw));
          loop ()
        | None -> ())
  in
  loop ();
  Device.set_active_threads dev prev_threads;
  let windows =
    Hashtbl.fold (fun ix w acc -> (ix, w) :: acc) windows []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (ix, w) ->
           { w_start = start_at +. (float_of_int ix *. window_ns);
             w_reqs = w.a_reqs;
             w_writes = w.a_writes;
             w_shed = w.a_shed;
             w_gets = w.a_gets;
             w_get_p99 = Histogram.percentile w.a_get_hist 99.0 })
  in
  { submitted = !submitted;
    executed = !executed;
    ops_executed = !ops_executed;
    shed = !shed;
    corrupt = !corrupt;
    start_ns = start_at;
    end_ns = !end_ns;
    service;
    get_service;
    put_service;
    queue_wait;
    get_execute;
    max_depth = !max_depth;
    windows;
    counters =
      Obs.Counters.diff_snapshots ~after:(Obs.Counters.snapshot ())
        ~before:counters_before }
