module Device = Pmem_sim.Device
module Fault_point = Kv_common.Fault_point

exception Crash_injected

type mode =
  | Off
  | Observe
  | Armed of Fault_point.site option

type t = {
  dev : Device.t;
  counts : (Fault_point.site, int) Hashtbl.t;
  mutable mode : mode;
  mutable remaining : int;
  mutable fired_site : Fault_point.site option;
}

let bump t site =
  Hashtbl.replace t.counts site
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts site))

(* The hook fires at the START of every persist-class device operation, so a
   raised crash models power failing just before that durable write: every
   earlier persist took effect, this one (and everything after) did not. *)
let hook t () =
  match t.mode with
  | Off -> ()
  | Observe -> bump t (Fault_point.current ())
  | Armed target ->
    let site = Fault_point.current () in
    bump t site;
    let matches = match target with None -> true | Some s -> s = site in
    if matches then
      if t.remaining <= 0 then begin
        t.fired_site <- Some site;
        t.mode <- Off;
        raise Crash_injected
      end
      else t.remaining <- t.remaining - 1

let attach dev =
  let t =
    { dev; counts = Hashtbl.create 16; mode = Off; remaining = 0;
      fired_site = None }
  in
  Device.set_persist_hook dev (Some (fun () -> hook t ()));
  t

let detach t =
  Device.set_persist_hook t.dev None;
  Device.set_tear t.dev None

let arm t ?site ~after () =
  t.mode <- Armed site;
  t.remaining <- after;
  t.fired_site <- None

let observe t = t.mode <- Observe
let disarm t = t.mode <- Off
let fired_site t = t.fired_site

let counts t =
  List.filter_map
    (fun site ->
      match Hashtbl.find_opt t.counts site with
      | Some n when n > 0 -> Some (site, n)
      | Some _ | None -> None)
    Fault_point.all

(* Deterministic per-unit survival function: hashing (seed, unit offset)
   keeps the decision stable for a whole crash without any hidden state. *)
let set_tear t ~seed ~keep_prob =
  Device.set_tear t.dev
    (Some
       (fun off ->
         let h = Hashtbl.hash (seed, off) land 0xFFFF in
         float_of_int h < keep_prob *. 65536.0))

let clear_tear t = Device.set_tear t.dev None
