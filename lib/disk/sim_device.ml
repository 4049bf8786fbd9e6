module Clock = Rvm_util.Clock
module Cost_model = Rvm_util.Cost_model
module Intervals = Rvm_util.Intervals

type t = {
  clock : Clock.t;
  disk : Cost_model.disk;
  seek_fraction : float;
  sector : int;
  (* Sectors written since the last sync, as coalesced extents in units of
     [sector] bytes: a write that overlaps or abuts an extent merges into
     it, so a streak of sequential appends is one extent (one force) while
     scattered page writes leave one extent per run of pages. A write costs
     O(log extents), whatever its length. *)
  mutable dirty : Intervals.t;
  mutable background : bool;
  mutable ios : int;
  mutable busy : float;
  mutable dev : Device.t;
}

let charge t us =
  t.busy <- t.busy +. us;
  if t.background then Clock.charge_background t.clock us
  else Clock.charge_io t.clock us

(* The extents a sorted write-back sweep would issue, highest start first:
   the order every simulated figure was calibrated with (float sums of the
   charges depend on it). *)
let sweep_extents t =
  Intervals.fold t.dirty ~init:[] ~f:(fun acc ~lo:_ ~len -> len :: acc)

(* A latency-charging combinator instance over [base]: forwards every
   operation, then charges the simulated clock what a 1993 disk would
   take. Stats and close-forwarding come from [Device.layer]. *)
let create ?(seek_fraction = 1.0) ?(sector = 1) ~base ~clock ~disk () =
  let t =
    {
      clock;
      disk;
      seek_fraction;
      sector;
      dirty = Intervals.empty;
      background = false;
      ios = 0;
      busy = 0.;
      dev = base;
    }
  in
  t.dev <-
    Device.layer
      ~name:(base.Device.name ^ "+sim")
      ~read:(fun b ~off ~buf ~pos ~len ->
        b.Device.read ~off ~buf ~pos ~len;
        t.ios <- t.ios + 1;
        charge t
          (Cost_model.disk_service_us t.disk ~seek_fraction:t.seek_fraction
             ~bytes:len ()))
      ~write:(fun b ~off ~buf ~pos ~len ->
        b.Device.write ~off ~buf ~pos ~len;
        if len > 0 then begin
          let lo = off / t.sector in
          t.dirty <-
            Intervals.add t.dirty ~lo ~len:(((off + len - 1) / t.sector) - lo + 1)
        end)
      ~sync:(fun b ->
        b.Device.sync ();
        List.iter
          (fun slen ->
            t.ios <- t.ios + 1;
            charge t
              (Cost_model.disk_service_us t.disk
                 ~seek_fraction:t.seek_fraction
                 ~bytes:(slen * t.sector) ()))
          (sweep_extents t);
        t.dirty <- Intervals.empty)
      base;
  t

let device t = t.dev
let set_background t b = t.background <- b
let io_count t = t.ios
let busy_us t = t.busy
