(* Discrete-event cluster runs: open-loop (and optionally closed-loop)
   load through the router, interleaved with scripted fault and
   migration events, under one global virtual time.

   The loop merges three time-ordered sources — the pre-computed arrival
   schedule (encoded [Proto] frames, decoded here per connection), the
   closed-loop connections' next-issue times, and an internal queue of
   continuation events (catch-up chunks, migration copy/cleanup chunks,
   scripted kills/rejoins/migrations) — and processes whichever is
   earliest.  Latency is measured from intended arrival time, so queueing
   behind a recovering node or a migration copy burst is visible (no
   coordinated omission).

   A DRAM oracle records every quorum-ACKED mutation (key, stamp,
   action).  Failed writes apply nowhere by construction, so the oracle
   is exact: at the end of the run {!divergence} asserts that every [Up]
   owner of every acked key agrees with it — the "no acked write lost,
   no replica divergence" check the cluster experiments gate on. *)

module Clock = Pmem_sim.Clock
module Histogram = Metrics.Histogram
module Proto = Service.Proto
module Server = Service.Server
module Types = Kv_common.Types
module S = Kv_common.Store_intf

type event =
  | Kill of int
  | Rejoin of int
  | Migrate of { vshard : int; from_ : int; to_ : int }

type timed = { at : float; ev : event }

type window = {
  w_start : float;
  mutable w_gets : int;
  mutable w_puts : int;
  mutable w_errs : int;
  w_get_h : Histogram.t;
  w_put_h : Histogram.t;
}

(* Full invocation history for the partition-aware audit: every single-op
   write (acked or not, with its minted stamp) and every single-op read
   (with the stamp of the version it answered from).  Batches and scans
   are not recorded — the chaos workloads issue single ops only, which is
   what makes the issued-stamp upper bound in {!history_check} sound. *)
type hist_ev =
  | H_write of {
      hw_at : float;      (* issue (intended arrival) time *)
      hw_fin : float;     (* client-side completion *)
      hw_key : Types.key;
      hw_stamp : int;     (* minted stamp, even when unacked *)
      hw_acked : bool;
    }
  | H_read of {
      hr_at : float;
      hr_fin : float;
      hr_key : Types.key;
      hr_stamp : int;     (* version the answer came from; -1 = none *)
      hr_ok : bool;       (* false for Err replies *)
    }

type result = {
  r_reqs : int;           (* frames processed *)
  r_ops : int;            (* primitive ops (batches expanded) *)
  r_errs : int;           (* Err replies (quorum / unavailable) *)
  r_corrupt_conns : int;  (* connections dropped on a corrupt frame *)
  r_end_ns : float;       (* completion of the last request *)
  r_get_h : Histogram.t;
  r_put_h : Histogram.t;
  r_windows : window list;
  r_catchups : Membership.catchup list; (* completed, newest last *)
  r_migrations : Migration.t list;
  r_acked : int;          (* oracle size: distinct quorum-acked keys *)
  r_history : hist_ev list; (* issue order; [] unless [record_history] *)
}

(* oracle: key -> (stamp, expected liveness, expected vlen) *)
type oracle = (Types.key, int * Node.action) Hashtbl.t

let oracle () : oracle = Hashtbl.create 65536

let oracle_note (orc : oracle) acked =
  List.iter
    (fun (key, stamp, action) ->
      match Hashtbl.find_opt orc key with
      | Some (s, _) when s >= stamp -> ()
      | _ -> Hashtbl.replace orc key (stamp, action))
    acked

(* Preload through the router: sequential stamped, replicated writes, so
   every replica starts with its owned slice and the oracle knows the
   whole universe. *)
let preload router (orc : oracle) ~n_keys ~vlen =
  let t = ref 0.0 in
  let payload = Bytes.create vlen in
  let bytes =
    Bytes.length (Proto.encode_request (Proto.Put (1L, payload)))
  in
  for i = 0 to n_keys - 1 do
    let key = Workload.Keyspace.key_of_index i in
    let o = Router.submit_write router ~at:!t ~bytes key (Node.Put vlen) in
    (match o.Router.reply with
    | Proto.Ok -> ()
    | r -> Format.kasprintf failwith "preload refused: %a" Proto.pp_reply r);
    oracle_note orc o.Router.acked;
    t := o.Router.finish
  done;
  !t

type cfg = {
  window_ns : float;     (* latency-timeline bucket width *)
  chunk : int;           (* catch-up / migration entries per tick *)
  tick_ns : float;       (* pacing between chunks *)
  seed : int;            (* tear seed for kills *)
}

let default_cfg =
  { window_ns = 2e6; chunk = 1024; tick_ns = 50_000.0; seed = 1 }

type internal =
  | Ext of event
  | Catchup_tick of Membership.catchup
  | Migrate_tick of Migration.t
  | Cleanup_tick of Migration.t

let run ?(cfg = default_cfg) ?(start_at = 0.0) ?(arrivals = [||]) ?closed
    ?(record_history = false) ~events router (orc : oracle) =
  let pending = ref (List.map (fun t -> (t.at, Ext t.ev)) events) in
  let sort_pending () =
    pending := List.sort (fun (a, _) (b, _) -> compare a b) !pending
  in
  sort_pending ();
  let push at it =
    pending :=
      List.merge
        (fun (a, _) (b, _) -> compare a b)
        !pending
        [ (at, it) ]
  in
  (* closed-loop connections: next issue time per conn, None = done *)
  let n_closed = match closed with Some c -> c.Server.conns | None -> 0 in
  let closed_next = Array.make (max n_closed 1) (Some start_at) in
  if n_closed = 0 then closed_next.(0) <- None;
  let decoders : (int, Proto.decoder) Hashtbl.t = Hashtbl.create 64 in
  let decoder_for conn =
    match Hashtbl.find_opt decoders conn with
    | Some d -> d
    | None ->
        let d = Proto.decoder () in
        Hashtbl.add decoders conn d;
        d
  in
  let windows : (int, window) Hashtbl.t = Hashtbl.create 256 in
  let window_at at =
    let idx = int_of_float (at /. cfg.window_ns) in
    match Hashtbl.find_opt windows idx with
    | Some w -> w
    | None ->
        let w =
          { w_start = float_of_int idx *. cfg.window_ns;
            w_gets = 0;
            w_puts = 0;
            w_errs = 0;
            w_get_h = Histogram.create ();
            w_put_h = Histogram.create () }
        in
        Hashtbl.add windows idx w;
        w
  in
  let get_h = Histogram.create () and put_h = Histogram.create () in
  let reqs = ref 0
  and ops = ref 0
  and errs = ref 0
  and corrupt = ref 0
  and end_ns = ref 0.0 in
  let catchups = ref [] and migrations = ref [] in
  let history = ref [] in
  let rec is_err = function
    | Proto.Err _ -> true
    | Proto.Replies rs -> List.exists is_err rs
    | _ -> false
  in
  let submit_one ?hdr ~at ~bytes req =
    incr reqs;
    ops := !ops + Proto.ops_in_req req;
    let o = Router.call ?hdr router ~at ~bytes req in
    oracle_note orc o.Router.acked;
    if record_history then begin
      match req with
      | Proto.Put (k, _) | Proto.Delete k ->
          history :=
            H_write
              { hw_at = at; hw_fin = o.Router.finish; hw_key = k;
                hw_stamp = o.Router.stamp; hw_acked = o.Router.acked <> [] }
            :: !history
      | Proto.Get k ->
          history :=
            H_read
              { hr_at = at; hr_fin = o.Router.finish; hr_key = k;
                hr_stamp = o.Router.stamp;
                hr_ok = not (is_err o.Router.reply) }
            :: !history
      | Proto.Scan _ | Proto.Batch _ -> ()
    end;
    let lat = o.Router.finish -. at in
    let w = window_at at in
    if Proto.puts_in_req req > 0 then begin
      Histogram.record put_h lat;
      Histogram.record w.w_put_h lat;
      w.w_puts <- w.w_puts + 1
    end
    else begin
      Histogram.record get_h lat;
      Histogram.record w.w_get_h lat;
      w.w_gets <- w.w_gets + 1
    end;
    if is_err o.Router.reply then begin
      incr errs;
      w.w_errs <- w.w_errs + 1
    end;
    if o.Router.finish > !end_ns then end_ns := o.Router.finish;
    o.Router.finish
  in
  let handle_arrival (a : Server.arrival) =
    let d = decoder_for a.Server.conn in
    Proto.feed_bytes d a.Server.frame;
    let bytes = Bytes.length a.Server.frame in
    let rec submit ?hdr req =
      ignore (submit_one ?hdr ~at:a.Server.at ~bytes req);
      drain ()
    and drain () =
      match Proto.next d with
      | `Await -> ()
      | `Corrupt _ | `Msg (Proto.Reply _) ->
          incr corrupt;
          Hashtbl.replace decoders a.Server.conn (Proto.decoder ())
      | `Msg (Proto.Request req) -> submit req
      | `Msg (Proto.Tagged (hdr, req)) -> submit ~hdr req
    in
    drain ()
  in
  let handle_internal now = function
    | Ext (Kill nid) -> Membership.kill ~seed:(cfg.seed + nid) router nid
    | Ext (Rejoin nid) ->
        let cu = Membership.start_rejoin router ~now nid in
        push (now +. cfg.tick_ns) (Catchup_tick cu)
    | Ext (Migrate { vshard; from_; to_ }) ->
        let m = Migration.start router ~vshard ~from_ ~to_ in
        migrations := m :: !migrations;
        push (now +. cfg.tick_ns) (Migrate_tick m)
    | Catchup_tick cu ->
        if Membership.step router cu ~now ~chunk:cfg.chunk then
          catchups := cu :: !catchups
        else push (now +. cfg.tick_ns) (Catchup_tick cu)
    | Migrate_tick m ->
        if Migration.step router m ~now ~chunk:cfg.chunk then
          push (now +. cfg.tick_ns) (Cleanup_tick m)
        else push (now +. cfg.tick_ns) (Migrate_tick m)
    | Cleanup_tick m ->
        if not (Migration.cleanup_step router m ~now ~chunk:cfg.chunk) then
          push (now +. cfg.tick_ns) (Cleanup_tick m)
  in
  let handle_closed conn now =
    match closed with
    | None -> closed_next.(conn) <- None
    | Some c -> (
        match c.Server.gen ~conn ~now with
        | None -> closed_next.(conn) <- None
        | Some req ->
            let bytes = Bytes.length (Proto.encode_request req) in
            let fin = submit_one ~at:now ~bytes req in
            closed_next.(conn) <- Some fin)
  in
  let ai = ref 0 in
  (* the closed connection whose next request is due first (first on ties),
     or -1 when every connection is done *)
  let next_closed () =
    let best = ref (-1) and best_t = ref infinity in
    for c = 0 to n_closed - 1 do
      match closed_next.(c) with
      | Some t when !best < 0 || t < !best_t ->
          best := c;
          best_t := t
      | _ -> ()
    done;
    !best
  in
  (* earliest source first; equal times go to the arrival, then the
     internal event, then the closed connection *)
  let rec loop () =
    let c = next_closed () in
    let c_at = if c < 0 then infinity else Option.get closed_next.(c) in
    if
      !ai < Array.length arrivals
      &&
      let at = arrivals.(!ai).Server.at in
      (c < 0 || at <= c_at)
      && match !pending with (p, _) :: _ -> at <= p | [] -> true
    then begin
      handle_arrival arrivals.(!ai);
      incr ai;
      loop ()
    end
    else
      match !pending with
      | (p, it) :: rest when c < 0 || p <= c_at ->
          pending := rest;
          handle_internal p it;
          loop ()
      | _ ->
          if c >= 0 then begin
            handle_closed c c_at;
            loop ()
          end
  in
  loop ();
  let ws =
    List.sort
      (fun a b -> compare a.w_start b.w_start)
      (Hashtbl.fold (fun _ w acc -> w :: acc) windows [])
  in
  { r_reqs = !reqs;
    r_ops = !ops;
    r_errs = !errs;
    r_corrupt_conns = !corrupt;
    r_end_ns = !end_ns;
    r_get_h = get_h;
    r_put_h = put_h;
    r_windows = ws;
    r_catchups = List.rev !catchups;
    r_migrations = List.rev !migrations;
    r_acked = Hashtbl.length orc;
    r_history = List.rev !history }

(* -- divergence check ----------------------------------------------- *)

type mismatch = {
  mm_key : Types.key;
  mm_node : int;
  mm_expected : string;
  mm_got : string;
}

(* What one replica holds for a key, compared typed; rendered only for a
   mismatch record. *)
type held = Corrupt | Present of int | Absent

let show_held = function
  | Corrupt -> "corrupt"
  | Present vlen -> Printf.sprintf "present(%d)" vlen
  | Absent -> "absent"

(* the replica's effect against the acked action: [Some mismatch] on a
   difference *)
let check_held n probe ~nid key action =
  let got =
    match Node.read n probe key with
    | { S.stage = S.Corrupt; _ } -> Corrupt
    | { S.loc = Some loc; _ } ->
        Present (Kv_common.Vlog.vlen_at (S.vlog (Node.store n)) loc)
    | { S.loc = None; _ } -> Absent
  in
  let expected =
    match action with Node.Put vlen -> Present vlen | Node.Delete -> Absent
  in
  if got = expected then None
  else
    Some
      { mm_key = key; mm_node = nid; mm_expected = show_held expected;
        mm_got = show_held got }

(* Call [f] for every [Up] owner of every quorum-acked key, in oracle
   order; returns how many it checked.  Probe reads run on throwaway
   copies of the node clocks, so an audit charges nothing to the service
   loops. *)
let audit_owners router (orc : oracle) f =
  let ring = Router.ring router in
  let probes =
    Array.map (fun n -> Clock.copy (Node.rx n)) (Router.nodes router)
  in
  let checked = ref 0 in
  Hashtbl.iter
    (fun key (stamp, action) ->
      List.iter
        (fun nid ->
          let n = Router.node router nid in
          if Node.status n = Node.Up then begin
            incr checked;
            f n probes.(nid) ~nid key stamp action
          end)
        (Ring.owners_of_key ring key))
    orc;
  !checked

(* Audit every quorum-acked key against every [Up] owner: presence must
   match the oracle's last acked action, and a present value must carry
   the acked length. *)
let divergence router (orc : oracle) =
  let mismatches = ref [] in
  let checked =
    audit_owners router orc (fun n probe ~nid key _stamp action ->
        Option.iter
          (fun mm -> mismatches := mm :: !mismatches)
          (check_held n probe ~nid key action))
  in
  (checked, List.rev !mismatches)

(* Scan-path audit: one router fan-out over the whole keyspace must
   reproduce exactly the oracle's live Put set, in ascending key order,
   with the acked value lengths.  Runs through the real [Router.call] scan
   path after the run, so its node-side scan costs land past the measured
   window.  [mm_node] is -1: a scan mismatch is a router-level divergence,
   not attributable to one replica. *)
let scan_divergence router (orc : oracle) =
  let expected =
    List.sort
      (fun (a, _) (b, _) -> Types.key_compare a b)
      (Hashtbl.fold
         (fun key (_stamp, action) acc ->
           match action with
           | Node.Put vlen -> (key, vlen) :: acc
           | Node.Delete -> acc)
         orc [])
  in
  let limit = max 1 (List.length expected) in
  let o = Router.call router ~at:0.0 ~bytes:0 (Proto.Scan (0L, limit)) in
  let got =
    match o.Router.reply with
    | Proto.Values vs -> List.map (fun (k, vlen, _) -> (k, vlen)) vs
    | _ -> []
  in
  let mismatches = ref [] in
  let note key expected got =
    mismatches :=
      { mm_key = key; mm_node = -1; mm_expected = show_held expected;
        mm_got = show_held got }
      :: !mismatches
  in
  let rec walk exp got =
    match (exp, got) with
    | [], [] -> ()
    | (k, vlen) :: e, [] ->
      note k (Present vlen) Absent;
      walk e []
    | [], (k, vlen) :: g ->
      note k Absent (Present vlen);
      walk [] g
    | ((ke, ve) :: e as exp'), ((kg, vg) :: g as got') ->
      let c = Types.key_compare ke kg in
      if c = 0 then begin
        if ve <> vg then note ke (Present ve) (Present vg);
        walk e g
      end
      else if c < 0 then begin
        note ke (Present ve) Absent;
        walk e got'
      end
      else begin
        note kg Absent (Present vg);
        walk exp' g
      end
  in
  walk expected got;
  (List.length expected, List.rev !mismatches)

(* -- partition-aware audits ------------------------------------------ *)

(* Under message loss and partitions the exact-presence audit above is
   too strong: a write that timed out unacked may still have landed on a
   minority of owners, so a replica can legitimately hold a NEWER version
   than the oracle's last acked one.  What must still hold on every [Up]
   owner of every acked key, after partitions heal and catch-up
   completes:

   - version >= the acked stamp (an acked write is never lost), and
   - when the versions are equal, the stored effect matches the acked
     action (presence and value length).

   A strictly newer version is counted as [residue] — unacked-write
   residue, legal and reported, never a failure by itself. *)
let chaos_divergence router (orc : oracle) =
  let mismatches = ref [] and residue = ref 0 in
  let note mm = mismatches := mm :: !mismatches in
  let checked =
    audit_owners router orc (fun n probe ~nid key stamp action ->
        let ver = Option.value ~default:(-1) (Node.version n key) in
        if ver > stamp then incr residue
        else if ver < stamp then
          note
            { mm_key = key; mm_node = nid;
              mm_expected = Printf.sprintf "stamp >= %d" stamp;
              mm_got = Printf.sprintf "stamp %d (acked write lost)" ver }
        else Option.iter note (check_held n probe ~nid key action))
  in
  (checked, !residue, List.rev !mismatches)

(* Client-observable consistency over the recorded history:

   - acked writes to one key carry strictly increasing stamps in issue
     order (the global sequencer mints in issue order, so a violation
     means an ack was forged or replayed);

   - every OK read answered from a stamp at least as new as the newest
     acked write to that key that FINISHED before the read was issued
     (no stale read under real-time order), and no newer than the
     newest stamp ISSUED to that key before the read finished (no
     phantom version).  Keys the history never wrote are skipped —
     their preload stamps are not recorded, so neither bound is known.

   Sound when the workload issues single ops only (see {!hist_ev}) and
   the write quorum covers all replicas, which is how the chaos gates
   configure the cluster. *)
let history_check (history : hist_ev list) =
  let by_key : (Types.key, hist_ev list ref) Hashtbl.t =
    Hashtbl.create 4096
  in
  let writes_of key =
    match Hashtbl.find_opt by_key key with
    | Some l -> List.rev !l
    | None -> []
  in
  let reads_checked = ref 0 and violations = ref [] in
  let note fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let last_acked : (Types.key, int) Hashtbl.t = Hashtbl.create 4096 in
  List.iter
    (function
      | H_write w ->
          (if w.hw_acked then begin
             (match Hashtbl.find_opt last_acked w.hw_key with
             | Some s when w.hw_stamp <= s ->
                 note "key %Ld: acked stamp %d issued after acked %d"
                   w.hw_key w.hw_stamp s
             | _ -> ());
             Hashtbl.replace last_acked w.hw_key w.hw_stamp
           end);
          (match Hashtbl.find_opt by_key w.hw_key with
          | Some l -> l := H_write w :: !l
          | None -> Hashtbl.add by_key w.hw_key (ref [ H_write w ]))
      | H_read r ->
          if r.hr_ok then begin
            match writes_of r.hr_key with
            | [] -> () (* only preload wrote it: bounds unknown *)
            | ws ->
                incr reads_checked;
                let lo, hi =
                  List.fold_left
                    (fun (lo, hi) ev ->
                      match ev with
                      | H_write w ->
                          ( (if w.hw_acked && w.hw_fin <= r.hr_at then
                               max lo w.hw_stamp
                             else lo),
                            if w.hw_at <= r.hr_fin then max hi w.hw_stamp
                            else hi )
                      | H_read _ -> (lo, hi))
                    (-1, -1) ws
                in
                if r.hr_stamp < lo then
                  note
                    "key %Ld: read issued at %.0f saw stamp %d, acked %d \
                     had finished (stale read)"
                    r.hr_key r.hr_at r.hr_stamp lo;
                if hi >= 0 && r.hr_stamp > hi then
                  note
                    "key %Ld: read finished at %.0f saw stamp %d, newest \
                     issued was %d (phantom version)"
                    r.hr_key r.hr_fin r.hr_stamp hi
          end)
    history;
  (!reads_checked, List.rev !violations)
