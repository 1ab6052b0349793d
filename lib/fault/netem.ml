(* Seeded message-level network fault injection.

   One injector interposes on every cluster exchange.  It is policy
   only: [send] answers "when does this frame arrive, and how many
   times?", and the caller charges those arrivals to the right service
   loops.  All randomness comes from a single splitmix64 stream, so with
   a fixed rule script and a fixed call order (both are, under the
   discrete-event runner) the whole fault schedule is a pure function of
   the seed. *)

module Rng = Workload.Rng

type endpoint = Client | Node of int

type fault =
  | Loss of float
  | Delay of { frac : float; mean_ns : float }
  | Duplicate of float
  | Reorder of { frac : float; extra_ns : float }
  | Partition of { a : endpoint list; b : endpoint list; symmetric : bool }
  | Fail_slow of { node : int; factor : float }

type rule = {
  r_from : float;
  r_until : float;
  r_src : endpoint option;
  r_dst : endpoint option;
  r_fault : fault;
}

type t = {
  rng : Rng.t;
  mutable rules : rule list; (* installation order *)
  mutable sent : int;
  mutable dropped : int;
  mutable partition_dropped : int;
  mutable duplicated : int;
  mutable delayed : int;
}

let c_sent = Obs.Counters.counter "netem.sent"
let c_dropped = Obs.Counters.counter "netem.dropped"
let c_partition = Obs.Counters.counter "netem.partition_dropped"
let c_dup = Obs.Counters.counter "netem.duplicated"
let c_delayed = Obs.Counters.counter "netem.delayed"

let create ?(seed = 1) () =
  { rng = Rng.create ~seed;
    rules = [];
    sent = 0;
    dropped = 0;
    partition_dropped = 0;
    duplicated = 0;
    delayed = 0 }

let add_rule t ?(from_ns = neg_infinity) ?(until_ns = infinity) ?src ?dst
    fault =
  (match fault with
  | Loss p | Duplicate p ->
      if p < 0.0 || p > 1.0 then invalid_arg "Netem.add_rule: probability"
  | Delay { frac; mean_ns } ->
      if frac < 0.0 || frac > 1.0 || mean_ns < 0.0 then
        invalid_arg "Netem.add_rule: delay"
  | Reorder { frac; extra_ns } ->
      if frac < 0.0 || frac > 1.0 || extra_ns < 0.0 then
        invalid_arg "Netem.add_rule: reorder"
  | Partition _ -> ()
  | Fail_slow { factor; _ } ->
      if factor < 1.0 then invalid_arg "Netem.add_rule: fail-slow factor");
  t.rules <-
    t.rules
    @ [ { r_from = from_ns; r_until = until_ns; r_src = src; r_dst = dst;
          r_fault = fault } ]

let active r ~now = now >= r.r_from && now < r.r_until

let ep_match filt ep =
  match filt with None -> true | Some e -> e = ep

let link_match r ~src ~dst = ep_match r.r_src src && ep_match r.r_dst dst

let cuts r ~src ~dst =
  match r.r_fault with
  | Partition { a; b; symmetric } ->
      (List.mem src a && List.mem dst b)
      || (symmetric && List.mem src b && List.mem dst a)
  | _ -> false

let reachable t ~now ~src ~dst =
  not (List.exists (fun r -> active r ~now && cuts r ~src ~dst) t.rules)

let slow_factor t ~now ~node =
  List.fold_left
    (fun acc r ->
      match r.r_fault with
      | Fail_slow { node = n; factor } when n = node && active r ~now ->
          Float.max acc factor
      | _ -> acc)
    1.0 t.rules

(* exponential with the given mean; [Rng.float] is in [0, 1) so the log
   argument stays in (0, 1] *)
let exp_delay rng mean_ns = mean_ns *. -.log (1.0 -. Rng.float rng)

let send t ~now ~src ~dst ~net_ns =
  t.sent <- t.sent + 1;
  Obs.Counters.incr c_sent;
  if not (reachable t ~now ~src ~dst) then begin
    t.partition_dropped <- t.partition_dropped + 1;
    Obs.Counters.incr c_partition;
    []
  end
  else begin
    let matching =
      List.filter (fun r -> active r ~now && link_match r ~src ~dst) t.rules
    in
    let lost =
      List.exists
        (fun r ->
          match r.r_fault with
          | Loss p -> Rng.float t.rng < p
          | _ -> false)
        matching
    in
    if lost then begin
      t.dropped <- t.dropped + 1;
      Obs.Counters.incr c_dropped;
      []
    end
    else begin
      let copies =
        List.fold_left
          (fun acc r ->
            match r.r_fault with
            | Duplicate p when Rng.float t.rng < p -> acc + 1
            | _ -> acc)
          1 matching
      in
      if copies > 1 then begin
        t.duplicated <- t.duplicated + (copies - 1);
        Obs.Counters.add_int c_dup (copies - 1)
      end;
      let arrival () =
        let extra =
          List.fold_left
            (fun acc r ->
              match r.r_fault with
              | Delay { frac; mean_ns } when Rng.float t.rng < frac ->
                  acc +. exp_delay t.rng mean_ns
              | Reorder { frac; extra_ns } when Rng.float t.rng < frac ->
                  acc +. extra_ns
              | _ -> acc)
            0.0 matching
        in
        if extra > 0.0 then begin
          t.delayed <- t.delayed + 1;
          Obs.Counters.incr c_delayed
        end;
        now +. net_ns +. extra
      in
      List.sort compare (List.init copies (fun _ -> arrival ()))
    end
  end

let sent t = t.sent
let dropped t = t.dropped
let partition_dropped t = t.partition_dropped
let duplicated t = t.duplicated
let delayed t = t.delayed
