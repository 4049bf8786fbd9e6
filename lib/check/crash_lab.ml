module Trace_device = Rvm_disk.Trace_device
module Mem_device = Rvm_disk.Mem_device
module Device = Rvm_disk.Device
module Registry = Rvm_obs.Registry

type crash_point = { upto : int; torn : int option }

type violation = {
  crash : crash_point;
  reason : string;
  tail : Registry.span_event list;
}

type 'x outcome = {
  events : int;
  writes : int;
  syncs : int;
  boundaries : int;
  torn_variants : int;
  recoveries : int;
  violations : violation list;
  extra : 'x;
}

type dev = { trace : Trace_device.t; device : Device.t }

type lab = {
  recorder : Trace_device.recorder;
  obs : Registry.t;
  seq_at : (int, int) Hashtbl.t;
      (* device event index -> flight-recorder span cursor when issued *)
  mutable devs : dev list;
}

let create () =
  {
    recorder = Trace_device.create_recorder ();
    obs = Registry.create ~trace_capacity:8192 ();
    seq_at = Hashtbl.create 256;
    devs = [];
  }

let obs lab = lab.obs
let device d = d.device
let event_count lab = Trace_device.event_count lab.recorder

let attach lab base =
  let trace = Trace_device.wrap lab.recorder base in
  let note_now () =
    Hashtbl.replace lab.seq_at (event_count lab) (Registry.trace_seq lab.obs)
  in
  let device =
    Device.layer
      ~write:(fun b ~off ~buf ~pos ~len ->
        note_now ();
        b.Device.write ~off ~buf ~pos ~len)
      ~sync:(fun b ->
        note_now ();
        b.Device.sync ())
      (Trace_device.device trace)
  in
  let d = { trace; device } in
  lab.devs <- d :: lab.devs;
  d

(* Torn prefixes for a write of [len] bytes at device offset [off]. A write
   that does not cross an aligned sector boundary is atomic. *)
let torn_positions ~sector ~exhaustive ~max_per_write ~off ~len =
  let first_boundary = ((off / sector) + 1) * sector in
  if off + len <= first_boundary then []
  else begin
    (* Interior sector boundaries, as write-relative positions. *)
    let bounds = ref [] in
    let b = ref first_boundary in
    while !b < off + len do
      bounds := (!b - off) :: !bounds;
      b := !b + sector
    done;
    let bounds = List.rev !bounds in
    (* Top up small straddling writes so every tearable write of >= 5
       bytes gets at least 4 variants. *)
    let extra =
      if List.length bounds >= 4 then []
      else
        List.filter
          (fun p -> p > 0 && p < len)
          (List.init 4 (fun i -> len * (i + 1) / 5))
    in
    let all = List.sort_uniq compare (bounds @ extra) in
    let cap = max 2 max_per_write in
    if exhaustive || List.length all <= cap then all
    else begin
      (* Evenly subsample down to the cap. *)
      let arr = Array.of_list all in
      let n = Array.length arr in
      List.sort_uniq compare
        (List.init cap (fun i -> arr.(i * (n - 1) / (cap - 1))))
    end
  end

let tail_length = 16

(* The last [tail_length] spans closed before the device event at [upto]
   was issued. The run is over, so the span set is final. *)
let tail_before lab ~n =
  let spans = Array.of_list (Registry.events lab.obs) in
  let final_seq = Registry.trace_seq lab.obs in
  let first_idx = final_seq - Array.length spans in
  fun upto ->
    let s =
      if upto >= n then final_seq
      else Option.value (Hashtbl.find_opt lab.seq_at upto) ~default:final_seq
    in
    let lo = max first_idx (s - tail_length) in
    if s <= lo then []
    else Array.to_list (Array.sub spans (lo - first_idx) (s - lo))

let explore lab ~sector ~exhaustive ~max_torn_per_write
    ?(on_write = fun ~event:_ _ ~off:_ ~len:_ ~variants:_ -> ()) ~recover
    ~judge () =
  if sector <= 0 then invalid_arg "Crash_lab.explore: sector must be positive";
  let events = Trace_device.events lab.recorder in
  let n = Array.length events in
  let tail_before = tail_before lab ~n in
  let violations = ref [] in
  let recoveries = ref 0 in
  let torn_variants = ref 0 in
  let check crash =
    incr recoveries;
    let mount d =
      Mem_device.of_bytes
        ~name:("replay-" ^ d.device.Device.name)
        (Trace_device.image d.trace ~events ~upto:crash.upto ?torn:crash.torn
           ())
    in
    let verdict =
      match recover mount with
      | exception e -> Error ("recovery raised: " ^ Printexc.to_string e)
      | recovered -> judge crash recovered
    in
    match verdict with
    | Ok () -> ()
    | Error reason ->
      violations :=
        { crash; reason; tail = tail_before crash.upto } :: !violations
  in
  check { upto = 0; torn = None };
  Array.iteri
    (fun k (ev : Trace_device.event) ->
      (match ev.kind with
      | Trace_device.Write { off; data } ->
        let len = Bytes.length data in
        let positions =
          torn_positions ~sector ~exhaustive
            ~max_per_write:max_torn_per_write ~off ~len
        in
        List.iter (fun p -> check { upto = k; torn = Some p }) positions;
        let variants = List.length positions in
        torn_variants := !torn_variants + variants;
        let dev =
          List.find
            (fun d -> Trace_device.dev_id d.trace = ev.dev_id)
            lab.devs
        in
        on_write ~event:k dev ~off ~len ~variants
      | Trace_device.Sync -> ());
      check { upto = k + 1; torn = None })
    events;
  {
    events = n;
    writes = Trace_device.write_count lab.recorder;
    syncs = Trace_device.sync_count lab.recorder;
    boundaries = n + 1;
    torn_variants = !torn_variants;
    recoveries = !recoveries;
    violations = List.rev !violations;
    extra = ();
  }

let pp_crash_point ppf { upto; torn } =
  match torn with
  | None -> Format.fprintf ppf "after event %d" upto
  | Some keep -> Format.fprintf ppf "event %d torn after %d byte(s)" upto keep

let pp_violation ppf v =
  Format.fprintf ppf "@[<v 2>violation at crash point %a:@ %s" pp_crash_point
    v.crash v.reason;
  (match v.tail with
  | [] -> ()
  | tail ->
    Format.fprintf ppf "@ flight recorder (last %d span(s) before the crash):"
      (List.length tail);
    List.iter
      (fun ev -> Format.fprintf ppf "@   %a" Rvm_obs.Trace.pp_span ev)
      tail);
  Format.fprintf ppf "@]"

let pp_outcome pp_extra ppf o =
  Format.fprintf ppf
    "@[<v>trace: %d events (%d writes, %d syncs); %a@ explored: %d \
     boundaries + %d torn variants = %d recoveries@ "
    o.events o.writes o.syncs pp_extra o.extra o.boundaries o.torn_variants
    o.recoveries;
  (match o.violations with
  | [] ->
    Format.fprintf ppf
      "contract: OK — every crash point recovers to a committed prefix"
  | vs ->
    Format.fprintf ppf "contract: %d VIOLATION(S)@ " (List.length vs);
    List.iteri
      (fun i v -> if i < 5 then Format.fprintf ppf "%a@ " pp_violation v)
      vs;
    if List.length vs > 5 then
      Format.fprintf ppf "... and %d more" (List.length vs - 5));
  Format.fprintf ppf "@]"
