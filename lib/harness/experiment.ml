module Clock = Rvm_util.Clock
module Cost_model = Rvm_util.Cost_model
module Stats = Rvm_util.Stats
module Device = Rvm_disk.Device
module Mem_device = Rvm_disk.Mem_device
module Sim_device = Rvm_disk.Sim_device
module Vm_sim = Rvm_vm.Vm_sim
module Page = Rvm_vm.Page
module Rvm_m = Rvm_core.Rvm
module Types = Rvm_core.Types
module Options = Rvm_core.Options
module Camelot = Camelot_sim.Camelot
module Tpca = Rvm_workload.Tpca
module Driver = Rvm_workload.Driver

type engine_kind = Rvm | Camelot

let engine_name = function Rvm -> "RVM" | Camelot -> "Camelot"

type run_result = {
  txns : int;
  tps : float;
  cpu_ms_per_txn : float;
  faults : int;
  pageouts : int;
  rmem_pmem : float;
}

(* The paper's machine had 64 MB; we scale the memory system 1:8 (8 MB of
   simulated physical memory, 4096-account steps instead of 32768) keeping
   every ratio — Rmem/Pmem, array/page geometry, log-window density —
   intact, so the curves are comparable while each run stays small. *)
let pmem_bytes = 8 * 1024 * 1024
let scale = 8

(* Fraction of physical memory available to recoverable data once Mach,
   daemons, program text and buffers are accounted for — what places the
   paging knee of the random curve near the paper's ~70% Rmem/Pmem (the
   account array is half of Rmem, so the knee sits where half the region
   outgrows this share). *)
let pmem_available_fraction = 0.42

(* Camelot's machine runs the same benchmark with six extra Mach tasks and
   the Disk Manager's buffer pool resident (Figure 1) — the paging and
   context-switching overheads of section 2.3. Its share of physical
   memory is correspondingly smaller. *)
let camelot_available_fraction = 0.30

let account_steps = List.init 14 (fun i -> (i + 1) * 32768 / scale)

let page_size = Page.default_size

(* Sorted write-back sweeps on the data disk: short seeks between runs. *)
let data_sweep_seek_fraction = 0.08

let tpca_run ?(log_size = 4 * 1024 * 1024) ?(warmup = 600) ?(measure = 5000)
    ?(truncation_mode = Types.Epoch) ~engine ~accounts ~pattern ~seed () =
  let model = Cost_model.dec5000 in
  let clock = Clock.simulated () in
  let base_vaddr = 16 * page_size in
  let layout = Tpca.layout ~accounts ~base:base_vaddr ~page_size in
  let seg_size = layout.Tpca.total_len + page_size in
  let rmem_pmem = float_of_int layout.Tpca.total_len /. float_of_int pmem_bytes in
  let physical_pages_of fraction =
    int_of_float (fraction *. float_of_int pmem_bytes) / page_size
  in
  let vm_config ~fraction ~fault_disk ~evict_disk ~evict_in_background =
    {
      Vm_sim.physical_pages = physical_pages_of fraction;
      page_size;
      fault_disk;
      evict_disk;
      evict_in_background;
    }
  in
  let log_base = Mem_device.create ~name:"log" ~size:log_size () in
  let log_sim =
    Sim_device.create ~seek_fraction:1.0 ~sector:512 ~base:log_base ~clock
      ~disk:model.Cost_model.log_disk ()
  in
  let log_dev = Sim_device.device log_sim in
  Rvm_m.create_log log_dev;
  let state = Tpca.create layout pattern ~seed in
  let seg_base = Mem_device.create ~name:"seg" ~size:seg_size () in
  (* Memory devices stay registered (whole image resident) until closed. *)
  Fun.protect ~finally:(fun () ->
      log_dev.Device.close ();
      seg_base.Device.close ())
  @@ fun () ->
  let drv, vm, rvm_handle =
    match engine with
    | Rvm ->
      let seg_sim =
        Sim_device.create ~seek_fraction:data_sweep_seek_fraction
          ~sector:page_size ~base:seg_base ~clock
          ~disk:model.Cost_model.data_disk ()
      in
      (* RVM's pageouts go to the dedicated, otherwise idle paging disk:
         the kernel's page daemon overlaps them with the log forces. *)
      let vm =
        Vm_sim.create ~clock ~model
          (vm_config ~fraction:pmem_available_fraction
             ~fault_disk:model.Cost_model.paging_disk
             ~evict_disk:model.Cost_model.paging_disk
             ~evict_in_background:true)
      in
      let options = { Options.default with Options.truncation_mode } in
      let rvm =
        Rvm_m.initialize ~options ~clock ~model ~vm ~log:log_dev
          ~resolve:(fun _ -> Sim_device.device seg_sim)
          ()
      in
      ignore
        (Rvm_m.map rvm ~vaddr:base_vaddr ~seg:1 ~seg_off:0
           ~len:layout.Tpca.total_len ());
      (Driver.of_rvm rvm, vm, Some rvm)
    | Camelot ->
      (* Camelot's Disk Manager is the external pager: faults and evictions
         go to the data segment itself, and its truncation sweeps carry
         their own explicit cost, so the segment device is unwrapped. *)
      (* Camelot's external pager writes dirty pages through the Disk
         Manager to the data segment's disk — the same arm its fault reads
         need, so evictions block (the paging activity of section 7.1.2). *)
      let vm =
        Vm_sim.create ~clock ~model
          (vm_config ~fraction:camelot_available_fraction
             ~fault_disk:model.Cost_model.data_disk
             ~evict_disk:model.Cost_model.data_disk
             ~evict_in_background:false)
      in
      let cam =
        Camelot.initialize ~clock ~model ~vm ~log:log_dev
          ~resolve:(fun _ -> seg_base)
          ()
      in
      ignore
        (Camelot.map cam ~vaddr:base_vaddr ~seg:1 ~seg_off:0
           ~len:layout.Tpca.total_len ());
      (Driver.of_camelot cam, vm, None)
  in
  for _ = 1 to warmup do
    Tpca.transaction state drv
  done;
  (* Epoch truncation is a long-period sporadic cost; measuring an exact
     whole number of truncation cycles amortizes it fairly (the paper's
     metric "amortizes the cost of sporadic activities like log truncation
     ... over all transactions"). Camelot truncates every few hundred
     transactions, so a fixed interval already averages it. *)
  let measured =
    match rvm_handle with
    | Some rvm when truncation_mode = Types.Epoch ->
      let truncs () =
        (Rvm_m.stats rvm).Rvm_core.Statistics.epoch_truncations
      in
      let cap = 60_000 in
      let run_until_next_truncation () =
        let t = truncs () in
        let n = ref 0 in
        while truncs () = t && !n < cap do
          Tpca.transaction state drv;
          incr n
        done
      in
      run_until_next_truncation ();
      Clock.drain_backlog clock;
      Clock.reset_counters clock;
      Vm_sim.reset_counters vm;
      let t0 = Clock.now_us clock in
      let txns = ref 0 in
      let start = truncs () in
      while truncs () < start + 2 && !txns < cap do
        Tpca.transaction state drv;
        incr txns
      done;
      Clock.drain_backlog clock;
      (!txns, Clock.now_us clock -. t0)
    | _ ->
      Clock.drain_backlog clock;
      Clock.reset_counters clock;
      Vm_sim.reset_counters vm;
      let t0 = Clock.now_us clock in
      for _ = 1 to measure do
        Tpca.transaction state drv
      done;
      Clock.drain_backlog clock;
      (measure, Clock.now_us clock -. t0)
  in
  let txns, wall_us = measured in
  {
    txns;
    tps = float_of_int txns /. (wall_us /. 1e6);
    cpu_ms_per_txn = Clock.cpu_us clock /. float_of_int txns /. 1e3;
    faults = Vm_sim.faults vm;
    pageouts = Vm_sim.pageouts vm;
    rmem_pmem;
  }

let trial_stats ~trials run =
  let tps = Stats.create () and cpu = Stats.create () in
  for i = 1 to trials do
    let r = run ~seed:(Int64.of_int (1000 + (7919 * i))) in
    Stats.add tps r.tps;
    Stats.add cpu r.cpu_ms_per_txn
  done;
  (tps, cpu)
