(* ycsb-btree: one client in a closed loop running YCSB-B (95% read, 5%
   update, Zipf keys) directly on the recoverable B-tree of a world built
   by [Ycsb_run.build_world] (latency-wrapped devices, an rds heap, the
   paging simulator keeping a quarter of the heap resident). The bulk
   load inside [build_world] is the set-up. Reads are [Pbtree.get]
   outside any transaction; each update is a no-restore transaction of
   one [Pbtree.put] and a no-flush commit, except every [flush_every]-th,
   which forces the log.

   Mix B rather than A: with A's 50/50 split the median operation sits
   exactly between the read and the update latency populations, so
   op_p50_us jumped between them from run to run. *)

module Ycsb_run = Rvm_server.Ycsb_run
module Ycsb = Rvm_workload.Ycsb
module Pbtree = Rvm_pds.Pbtree
module Rds = Rvm_alloc.Rds
module Rvm = Rvm_core.Rvm
module Types = Rvm_core.Types
module Options = Rvm_core.Options
module Region = Rvm_core.Region
module Segment = Rvm_core.Segment
module Vm_sim = Rvm_vm.Vm_sim
module Device = Rvm_disk.Device
module Mem_device = Rvm_disk.Mem_device
module Clock = Rvm_util.Clock
module Rng = Rvm_util.Rng
module S = Probe.Samples

let records = 4_000
let flush_every = 10
let setups = 3
let recoveries = 25
let recovery_tail = 20_000

let config =
  {
    Ycsb_run.default_config with
    Ycsb_run.mix = Ycsb.B;
    records;
    mem_fraction = 0.25;
    (* No scheduler drives a background slot here: the commit path
       truncates inline. *)
    background_truncation = false;
  }

type calls = {
  get : key:string -> string option;
  put : Rvm.tid -> key:string -> value:string -> unit;
  begin_ : unit -> Rvm.tid;
  commit : Rvm.tid -> Types.commit_mode -> unit;
  flush : unit -> unit;
}

let direct (w : Ycsb_run.world) =
  {
    get = (fun ~key -> Pbtree.get w.Ycsb_run.tree ~key);
    put = (fun tid ~key ~value -> Pbtree.put w.Ycsb_run.tree tid ~key ~value);
    begin_ = (fun () -> Rvm.begin_transaction w.Ycsb_run.rvm ~mode:Types.No_restore);
    commit = (fun tid mode -> Rvm.end_transaction w.Ycsb_run.rvm tid ~mode);
    flush = (fun () -> Rvm.flush w.Ycsb_run.rvm);
  }

let traced c =
  let sp = Probe.span and k = Probe.Span.id in
  let get = k "pbtree.get" and put = k "pbtree.put" and begin_ = k "rvm.begin"
  and end_noflush = k "rvm.end_noflush" and end_flush = k "rvm.end_flush"
  and flush = k "rvm.flush" in
  {
    get = (fun ~key -> sp get (fun () -> c.get ~key));
    put = (fun tid ~key ~value -> sp put (fun () -> c.put tid ~key ~value));
    begin_ = (fun () -> sp begin_ c.begin_);
    commit =
      (fun tid mode ->
        let k = match mode with Types.Flush -> end_flush | Types.No_flush -> end_noflush in
        sp k (fun () -> c.commit tid mode));
    flush = (fun () -> sp flush c.flush);
  }

let vm_counts (w : Ycsb_run.world) =
  match w.Ycsb_run.vm with
  | Some vm ->
    { Layers.faults = Vm_sim.faults vm; evictions = Vm_sim.evictions vm;
      pageouts = Vm_sim.pageouts vm }
  | None -> { Layers.faults = 0; evictions = 0; pageouts = 0 }

type stream = {
  gen : Ycsb.gen;
  model : (string, string) Hashtbl.t;  (** serial reference *)
  mutable updates : int;
  mutable digest : int;
}

(* One YCSB request. An update's whole transaction is the "update"
   sample; a forcing one is also a "flush" sample. *)
let step c (w : Ycsb_run.world) st (p : Common.phase) =
  let clock = w.Ycsb_run.clock in
  let op = Ycsb.next st.gen in
  let s0 = Clock.now_us clock in
  let t0 = Probe.cpu_ns () in
  (match op with
  | Ycsb.Read key ->
    ignore (c.get ~key);
    S.add p.Common.read_ns (Probe.cpu_ns () - t0)
  | Ycsb.Update (key, value) ->
    st.updates <- st.updates + 1;
    let mode = if st.updates mod flush_every = 0 then Types.Flush else Types.No_flush in
    let tid = c.begin_ () in
    c.put tid ~key ~value;
    c.commit tid mode;
    let dt = Probe.cpu_ns () - t0 in
    S.add p.Common.update_ns dt;
    if mode = Types.Flush then S.add p.Common.flush_ns dt;
    p.Common.user_bytes <- p.Common.user_bytes + String.length key + String.length value
  | _ -> invalid_arg "ycsb-btree: mix B issues only reads and updates");
  S.add p.Common.op_ns (Probe.cpu_ns () - t0);
  S.add p.Common.sim_ns (int_of_float ((Clock.now_us clock -. s0) *. 1e3));
  st.digest <- ((st.digest * 31) + Hashtbl.hash (Ycsb.op_key op)) land max_int;
  Ycsb.apply_model st.model ~value_len:config.Ycsb_run.value_len op

let measure ?p c (w : Ycsb_run.world) st budget =
  Common.measure ?p ~sim_now:(fun () -> Clock.now_us w.Ycsb_run.clock) budget (step c w st)

(* The tree passes its structural check and holds exactly the model. *)
let tree_matches tree model =
  match Pbtree.check tree with
  | exception Types.Rvm_error _ -> false
  | () ->
    Pbtree.length tree = Hashtbl.length model
    && Pbtree.fold tree ~init:true ~f:(fun ok ~key ~value ->
           ok && Hashtbl.find_opt model key = Some value)

let image (d : Device.t) = Mem_device.of_bytes (Device.read_bytes d ~off:0 ~len:d.Device.size)

(* Truncate and run a fixed tail of [recovery_tail] requests, so the log
   holds the same amount of work on every run; then flush, copy the log
   and segment images, and recover the copies [recoveries] times. Each
   recovered tree must match the model. *)
let crash_and_recover c (w : Ycsb_run.world) st =
  Rvm.truncate w.Ycsb_run.rvm;
  ignore (measure c w st (Budget.Ops recovery_tail));
  c.flush ();
  let model = st.model in
  let rvm = w.Ycsb_run.rvm in
  let log_img = image w.Ycsb_run.log_dev
  and seg_img = image (Segment.device (Rvm.segment rvm 1)) in
  let regions = Rvm.regions rvm in
  let times = ref [] and ok = ref true in
  for _ = 1 to recoveries do
    let log = image log_img and seg = image seg_img in
    Gc.compact ();
    let t0 = Probe.cpu_ns () in
    let r =
      Probe.span (Probe.Span.id "rvm.recover") (fun () -> Rvm.initialize ~log ~resolve:(fun _ -> seg) ())
    in
    times := (float_of_int (Probe.cpu_ns () - t0) /. 1e6) :: !times;
    List.iter
      (fun (g : Region.t) ->
        ignore
          (Rvm.map r ~vaddr:g.Region.vaddr ~seg:(Segment.id g.Region.seg)
             ~seg_off:g.Region.seg_off ~len:g.Region.length ()))
      regions;
    let heap = Rds.attach r ~base:(Rds.base w.Ycsb_run.heap) in
    let tree = Pbtree.attach r heap ~addr:(Pbtree.address w.Ycsb_run.tree) in
    if not (tree_matches tree model) then ok := false
  done;
  (!times, !ok)

let build () =
  let t0 = Probe.cpu_ns () in
  let w = Ycsb_run.build_world config in
  (w, Probe.cpu_seconds_since t0)

(* Memory devices stay registered until closed. *)
let close (w : Ycsb_run.world) =
  w.Ycsb_run.log_dev.Device.close ();
  (Segment.device (Rvm.segment w.Ycsb_run.rvm 1)).Device.close ()

(* The world is built for the server's background truncation slot
   (incremental mode). Here the commit path truncates inline, and epoch
   mode makes that one stall per log cycle instead of page steps spread
   over many commits; it also lets [Rvm.truncate] empty the log before
   the recovery tail. *)
let use_epoch (w : Ycsb_run.world) =
  Rvm.set_options w.Ycsb_run.rvm (fun o -> { o with Options.truncation_mode = Types.Epoch })

let run ~seed ~budget ~trace =
  let setup =
    List.init setups (fun i ->
        let w, t = build () in
        if i < setups - 1 then close w;
        (w, t))
  in
  let w = fst (List.nth setup (setups - 1)) in
  use_epoch w;
  let model = Hashtbl.create (2 * records) in
  for i = 0 to records - 1 do
    Hashtbl.replace model (Ycsb.key_of i) (Ycsb.value ~len:config.Ycsb_run.value_len ~ver:1)
  done;
  let st =
    {
      gen =
        Ycsb.create ~rng:(Rng.create ~seed:(Int64.of_int seed)) ~mix:Ycsb.B ~records
          ~value_len:config.Ycsb_run.value_len ~scan_max:config.Ycsb_run.scan_max;
      model;
      updates = 0;
      digest = 0;
    }
  in
  let c = direct w in
  ignore (measure c w st (Budget.warmup budget 5_000));
  let heap_words = Common.heap_words () in
  Gc.compact ();
  let obs = w.Ycsb_run.obs in
  let c0 = Rvm_obs.Registry.counters obs and d0 = Layers.dev_stats [ w.Ycsb_run.log_dev ] in
  let vm0 = vm_counts w in
  let untraced, p =
    if not trace then (([], 0), measure c w st budget)
    else
      let tc = traced c in
      Common.alternate budget
        ~plain:(fun b -> measure c w st b)
        ~traced:(fun p b -> ignore (measure ~p tc w st b))
  in
  p.Common.heap_words <- heap_words;
  let spans = Probe.Span.snapshot () in
  let c1 = Rvm_obs.Registry.counters obs and d1 = Layers.dev_stats [ w.Ycsb_run.log_dev ] in
  let vm1 = vm_counts w in
  let live = tree_matches w.Ycsb_run.tree model in
  Probe.Span.enabled := trace;
  let rec_ms, recovered = crash_and_recover c w st in
  let checks =
    [
      ("ycsb-btree: Pbtree.check passes and the tree equals the model", live);
      ("ycsb-btree: every recovered tree equals the model", recovered);
    ]
  in
  let report metrics checks notes =
    {
      Report.workload = "ycsb-btree";
      checks;
      attempted = p.Common.ops + snd untraced;
      failed = 0;
      digest = st.digest;
      notes;
      metrics;
    }
  in
  if not trace then
    report
      (Common.e2e ~setup:(List.map snd setup) ~p ~recover_ms:rec_ms ~sim_ops:p.Common.ops
         ~log_bytes:(Layers.delta c0 c1 "log.append.bytes"))
      checks (Common.notes ~p)
  else begin
    let vm =
      {
        Layers.faults = vm1.Layers.faults - vm0.Layers.faults;
        evictions = vm1.Layers.evictions - vm0.Layers.evictions;
        pageouts = vm1.Layers.pageouts - vm0.Layers.pageouts;
      }
    in
    let metrics, table, within =
      Layers.per_layer ~workload:"ycsb-btree" ~p ~untraced
        ~committed:(Layers.delta c0 c1 "txn.committed") ~counters:(Layers.delta c0 c1)
        ~dev:(Layers.dev_delta d0 d1) ~server:None ~vm:(Some vm)
        ~recover:Probe.Span.(calls "rvm.recover", busy_s "rvm.recover")
        spans
    in
    report metrics
      (checks @ [ ("ycsb-btree: layer table adds up to the traced wall time", within) ])
      (table @ [ Layers.write_trace "ycsb-btree" ])
  end
