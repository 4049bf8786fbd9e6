(* coda-commit: one client in a closed loop calling the RVM library
   directly, on plain memory devices (no simulated latency stack, no
   scheduler, no lock manager, no B-tree, no paging simulator).

   Each operation is one Coda-shaped transaction on a 512-byte
   "directory" object: a read of the whole object, then a few small
   set_ranges with redundant re-declarations (the header twice, an
   entry and a sub-range of it), stores into the declared bytes, and a
   commit. Commits come in bursts over the same object, no-flush except
   every [flush_every]-th, which forces the log. The 4 MiB log wraps
   through many epoch truncations per run. Before the measured phase the
   benchmark truncates, runs a fixed tail of [recovery_tail]
   transactions (so the log holds the same amount of work on every run),
   flushes, and takes copies of the device images: the crash image. The
   world runs on; the copies are recovered between slices of the
   measured phase, as if the handle had been dropped without
   terminating it. *)

module Rvm = Rvm_core.Rvm
module Types = Rvm_core.Types
module Region = Rvm_core.Region
module Device = Rvm_disk.Device
module Mem_device = Rvm_disk.Mem_device
module Clock = Rvm_util.Clock
module Rng = Rvm_util.Rng
module S = Probe.Samples

let log_size = 4 lsl 20
let objects = 1024
let obj_len = 512
let region_len = objects * obj_len
let header_len = 32
let entry_slot = 64
let flush_every = 10
let burst_max = 8
let setups = 51
let recoveries = Budget.chunks
let recovery_tail = 8_000

(* The calls the loop makes into [Rvm]; the traced run swaps in
   span-wrapped versions. *)
type calls = {
  load : addr:int -> len:int -> Bytes.t;
  begin_ : Types.restore_mode -> Rvm.tid;
  set_range : Rvm.tid -> addr:int -> len:int -> unit;
  store : addr:int -> Bytes.t -> unit;
  commit : Rvm.tid -> Types.commit_mode -> unit;
  flush : unit -> unit;
}

let direct rvm =
  {
    load = (fun ~addr ~len -> Rvm.load rvm ~addr ~len);
    begin_ = (fun mode -> Rvm.begin_transaction rvm ~mode);
    set_range = (fun tid ~addr ~len -> Rvm.set_range rvm tid ~addr ~len);
    store = (fun ~addr b -> Rvm.store rvm ~addr b);
    commit = (fun tid mode -> Rvm.end_transaction rvm tid ~mode);
    flush = (fun () -> Rvm.flush rvm);
  }

let traced c =
  let sp = Probe.span in
  let load = Probe.Span.id "rvm.load"
  and begin_ = Probe.Span.id "rvm.begin"
  and set_range = Probe.Span.id "rvm.set_range"
  and store = Probe.Span.id "rvm.store"
  and end_noflush = Probe.Span.id "rvm.end_noflush"
  and end_flush = Probe.Span.id "rvm.end_flush"
  and flush = Probe.Span.id "rvm.flush" in
  {
    load = (fun ~addr ~len -> sp load (fun () -> c.load ~addr ~len));
    begin_ = (fun mode -> sp begin_ (fun () -> c.begin_ mode));
    set_range =
      (fun tid ~addr ~len -> sp set_range (fun () -> c.set_range tid ~addr ~len));
    store = (fun ~addr b -> sp store (fun () -> c.store ~addr b));
    commit =
      (fun tid mode ->
        let k = match mode with Types.Flush -> end_flush | Types.No_flush -> end_noflush in
        sp k (fun () -> c.commit tid mode));
    flush = (fun () -> sp flush (fun () -> c.flush ()));
  }

type world = {
  rvm : Rvm.t;
  log : Device.t;  (** the memory devices themselves (stats, snapshots) *)
  seg : Device.t;
  clock : Clock.t;
  base : int;
}

let build ~trace =
  let log = Mem_device.create ~name:"coda-log" ~size:log_size () in
  let seg = Mem_device.create ~name:"coda-seg" ~size:region_len () in
  let wrap prefix d = if trace then Layers.timed_device prefix d else d in
  let log_dev = wrap "disk.log" log and seg_dev = wrap "disk.seg" seg in
  Rvm.create_log log_dev;
  (* The simulated clock only accumulates the cost model's CPU charges
     (memory devices add no modelled I/O): the modelled CPU per
     transaction of the paper's Figure 9, reported beside host time. *)
  let clock = Clock.simulated () in
  let rvm = Rvm.initialize ~clock ~log:log_dev ~resolve:(fun _ -> seg_dev) () in
  let region = Rvm.map rvm ~seg:1 ~seg_off:0 ~len:region_len () in
  { rvm; log; seg; clock; base = region.Region.vaddr }

(* {1 The operation stream} *)

type gen = {
  rng : Rng.t;
  zipf : Rng.zipf;
  payloads : Bytes.t array array;  (** [len/8 - 2] -> variants *)
  mutable obj : int;
  mutable burst_left : int;
  mutable n : int;
  mutable digest : int;  (** running fingerprint of the stream *)
}

let gen ~seed =
  let rng = Rng.create ~seed:(Int64.of_int seed) in
  let payloads =
    Array.init 7 (fun i -> Array.init 32 (fun _ -> Rng.bytes rng (16 + (8 * i))))
  in
  { rng; zipf = Rng.zipf_make ~n:objects ~s:0.8; payloads; obj = 0; burst_left = 0; n = 0; digest = 0 }

type txn = {
  obj_addr : int;
  entry_off : int;
  entry : Bytes.t;
  stamp : Bytes.t;
  mode : Types.commit_mode;
}

let next g ~base =
  if g.burst_left = 0 then begin
    g.obj <- Rng.zipf g.rng g.zipf;
    g.burst_left <- 1 + Rng.int g.rng burst_max
  end;
  g.burst_left <- g.burst_left - 1;
  g.n <- g.n + 1;
  let slot = 1 + Rng.int g.rng ((obj_len / entry_slot) - 1) in
  let len_class = Rng.int g.rng 7 in
  let variants = g.payloads.(len_class) in
  g.digest <- ((g.digest * 31) + (g.obj * 64) + (slot * 8) + len_class) land max_int;
  {
    obj_addr = base + (g.obj * obj_len);
    entry_off = slot * entry_slot;
    entry = variants.(Rng.int g.rng (Array.length variants));
    stamp = g.payloads.(0).(Rng.int g.rng (Array.length variants));
    mode = (if g.n mod flush_every = 0 then Types.Flush else Types.No_flush);
  }

(* One transaction; returns the bytes declared with set_range. The
   redundant declarations are the intra-transaction optimizer's input;
   bursts on one object feed inter-transaction subsumption. *)
let exec c shadow ~base t =
  let hdr = t.obj_addr and ent = t.obj_addr + t.entry_off in
  let elen = Bytes.length t.entry in
  let tid =
    c.begin_ (match t.mode with Types.Flush -> Types.Restore | Types.No_flush -> Types.No_restore)
  in
  c.set_range tid ~addr:hdr ~len:header_len;
  c.set_range tid ~addr:ent ~len:elen;
  c.set_range tid ~addr:hdr ~len:header_len;
  c.set_range tid ~addr:(ent + 8) ~len:8;
  c.store ~addr:hdr t.stamp;
  c.store ~addr:ent t.entry;
  c.commit tid t.mode;
  Bytes.blit t.stamp 0 shadow (hdr - base) (Bytes.length t.stamp);
  Bytes.blit t.entry 0 shadow (ent - base) elen;
  (2 * header_len) + elen + 8

(* {1 Measured phase} *)

(* One operation: read the object, then run the transaction.
   The read is the "read" sample, the transaction the "update" sample,
   and a forcing commit's whole operation the "flush" sample. A flush
   operation takes ~50 us, long enough that a slice of stolen vCPU time
   lands in a few percent of them, right at their p99; so the flush
   sample is timed on the CPU clock, read outside the monotonic window
   so the other samples do not carry its system calls. *)
let step c w g shadow (p : Common.phase) =
  let t = next g ~base:w.base in
  let flush = t.mode = Types.Flush in
  let s0 = Clock.now_us w.clock in
  let c0 = if flush then Probe.cpu_ns () else 0 in
  let t0 = Probe.now_ns () in
  ignore (c.load ~addr:t.obj_addr ~len:obj_len);
  let t1 = Probe.now_ns () in
  p.Common.user_bytes <- p.Common.user_bytes + exec c shadow ~base:w.base t;
  let t2 = Probe.now_ns () in
  if flush then S.add p.Common.flush_ns (Probe.cpu_ns () - c0);
  S.add p.Common.op_ns (t2 - t0);
  S.add p.Common.read_ns (t1 - t0);
  S.add p.Common.update_ns (t2 - t1);
  S.add p.Common.sim_ns (int_of_float ((Clock.now_us w.clock -. s0) *. 1e3))

let measure ?p ?chunk_ns c w g shadow budget =
  Common.measure ?p ?chunk_ns ~sim_now:(fun () -> Clock.now_us w.clock) budget (step c w g shadow)

(* Truncate, run the fixed tail, flush, then crash: copy the device
   images and the shadow of committed stores. *)
type image = { log_img : Bytes.t; seg_img : Bytes.t; committed : Bytes.t }

let crash_image c w g shadow =
  Rvm.truncate w.rvm;
  ignore (measure c w g shadow (Budget.Ops recovery_tail));
  c.flush ();
  { log_img = Mem_device.snapshot w.log; seg_img = Mem_device.snapshot w.seg;
    committed = Bytes.copy shadow }

(* Recover fresh copies of the crash image. Returns the CPU time of
   [Rvm.initialize] in ms and whether the recovered region equals the
   shadow of committed stores. The heap is collected before and after,
   so neither the recovery nor the measured phase pays for the other's
   garbage. *)
let recover ~trace im =
  let log = Mem_device.of_bytes im.log_img and seg = Mem_device.of_bytes im.seg_img in
  let log = if trace then Layers.timed_device "disk.log" log else log in
  let seg = if trace then Layers.timed_device "disk.seg" seg else seg in
  Gc.compact ();
  let t0 = Probe.cpu_ns () in
  let rvm =
    Probe.span (Probe.Span.id "rvm.recover") (fun () ->
        Rvm.initialize ~log ~resolve:(fun _ -> seg) ())
  in
  let ms = float_of_int (Probe.cpu_ns () - t0) /. 1e6 in
  let r = Rvm.map rvm ~seg:1 ~seg_off:0 ~len:region_len () in
  let equal = Bytes.equal (Rvm.load rvm ~addr:r.Region.vaddr ~len:region_len) im.committed in
  Gc.compact ();
  (ms, equal)

let run ~seed ~budget ~trace =
  let setup_times = ref [] and world = ref None in
  for _ = 1 to setups do
    Option.iter (fun w -> w.log.Device.close (); w.seg.Device.close ()) !world;
    world := None;
    (* Each build starts from a collected heap, so the builds neither
       grow the heap nor pay for each other's garbage. *)
    Gc.full_major ();
    let t0 = Probe.cpu_ns () in
    world := Some (build ~trace);
    setup_times := Probe.cpu_seconds_since t0 :: !setup_times
  done;
  let w = Option.get !world in
  let shadow = Bytes.make region_len '\000' in
  let g = gen ~seed in
  let c = direct w.rvm in
  (* Warm-up: run the log through its first truncations before timing. *)
  ignore (measure c w g shadow (Budget.warmup budget 20_000));
  let heap_words = Common.heap_words () in
  let im = crash_image c w g shadow in
  Gc.compact ();
  let obs = Rvm.obs w.rvm in
  let c0 = Rvm_obs.Registry.counters obs and d0 = Layers.dev_stats [ w.log ] in
  let recovered = ref [] in
  let recover_once () = recovered := recover ~trace im :: !recovered in
  let untraced, p =
    if not trace then begin
      (* One recovery after each throughput chunk, so the recoveries
         sample the whole run as the chunks do. *)
      let p = Common.phase () and per = Budget.split budget recoveries in
      let chunk_ns = Budget.chunk_ns budget in
      for _ = 1 to recoveries do
        ignore (measure ~p ~chunk_ns c w g shadow per);
        recover_once ()
      done;
      (([], 0), p)
    end
    else begin
      (* Untraced slices run the direct calls over the same world, whose
         timing device layers record nothing while spans are off. *)
      let tc = traced c in
      Common.alternate budget
        ~plain:(fun b -> measure c w g shadow b)
        ~traced:(fun p b -> ignore (measure ~p tc w g shadow b))
    end
  in
  p.Common.heap_words <- heap_words;
  let spans = Probe.Span.snapshot () in
  let c1 = Rvm_obs.Registry.counters obs and d1 = Layers.dev_stats [ w.log ] in
  if trace then begin
    Probe.Span.enabled := true;
    for _ = 1 to recoveries do recover_once () done
  end;
  let rec_ms = List.map fst !recovered and equal = List.for_all snd !recovered in
  let checks = [ ("coda-commit: recovered region equals the shadow of committed stores", equal) ] in
  let report metrics checks notes =
    {
      Report.workload = "coda-commit";
      checks;
      attempted = p.Common.ops + snd untraced;
      failed = 0;
      digest = g.digest;
      notes;
      metrics;
    }
  in
  if not trace then
    report
      (Common.e2e ~setup:!setup_times ~p ~recover_ms:rec_ms ~sim_ops:p.Common.ops
         ~log_bytes:(Layers.delta c0 c1 "log.append.bytes"))
      checks (Common.notes ~p)
  else begin
    let metrics, table, within =
      Layers.per_layer ~workload:"coda-commit" ~p ~untraced
        ~committed:(Layers.delta c0 c1 "txn.committed") ~counters:(Layers.delta c0 c1)
        ~dev:(Layers.dev_delta d0 d1) ~server:None ~vm:None
        ~recover:Probe.Span.(calls "rvm.recover", busy_s "rvm.recover")
        spans
    in
    report metrics
      (checks @ [ ("coda-commit: layer table adds up to the traced wall time", within) ])
      (table @ [ Layers.write_trace "coda-commit" ])
  end
