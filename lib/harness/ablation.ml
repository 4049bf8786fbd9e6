module Clock = Rvm_util.Clock
module Cost_model = Rvm_util.Cost_model
module Stats = Rvm_util.Stats
module Device = Rvm_disk.Device
module Mem_device = Rvm_disk.Mem_device
module Sim_device = Rvm_disk.Sim_device
module Rvm_m = Rvm_core.Rvm
module Types = Rvm_core.Types
module Options = Rvm_core.Options
module Statistics = Rvm_core.Statistics
module Tpca = Rvm_workload.Tpca
module Coda = Rvm_workload.Coda

let truncation_modes ?(measure = 4000) () =
  let row mode name =
    let r =
      Experiment.tpca_run ~measure ~truncation_mode:mode
        ~engine:Experiment.Rvm ~accounts:16384 ~pattern:Tpca.Localized
        ~seed:11L ()
    in
    [ name; Printf.sprintf "%.1f" r.Experiment.tps;
      Printf.sprintf "%.2f" r.Experiment.cpu_ms_per_txn;
      string_of_int r.Experiment.faults ]
  in
  Report.table
    ~title:
      "Ablation: truncation mechanism (TPC-A localized, 16384 accounts, \
       Rmem/Pmem=50%)"
    ~header:[ "Truncation"; "txn/s"; "CPU ms/txn"; "faults" ]
    ~rows:[ row Types.Epoch "epoch (Fig. 6)"; row Types.Incremental "incremental (Fig. 7)" ]

(* Memory devices keep their whole image registered until closed. *)
let close_all devs = List.iter (fun (d : Device.t) -> d.Device.close ()) devs

let optimizations () =
  let profile = Coda.find "berlioz" in
  let run_with ~intra ~inter =
    let log_dev = Mem_device.create ~name:"log" ~size:(32 * 1024 * 1024) () in
    Rvm_m.create_log log_dev;
    let seg_dev = Mem_device.create ~name:"seg" ~size:(4 * 1024 * 1024) () in
    let options =
      {
        Options.default with
        Options.intra_optimization = intra;
        inter_optimization = inter;
        spool_max_bytes = 4 * 1024 * 1024;
      }
    in
    let rvm =
      Rvm_m.initialize ~options ~log:log_dev ~resolve:(fun _ -> seg_dev) ()
    in
    let base = 16 * 4096 in
    ignore (Rvm_m.map rvm ~vaddr:base ~seg:1 ~seg_off:0 ~len:(1024 * 1024) ());
    let r = Coda.run profile rvm ~base ~len:(1024 * 1024) ~seed:5L in
    close_all [ log_dev; seg_dev ];
    r.Coda.bytes_logged
  in
  let baseline = run_with ~intra:false ~inter:false in
  let row name ~intra ~inter =
    let bytes = run_with ~intra ~inter in
    [
      name;
      string_of_int bytes;
      Report.pct (100. *. (1. -. (float_of_int bytes /. float_of_int baseline)));
    ]
  in
  Report.table
    ~title:"Ablation: log optimizations (Coda client profile 'berlioz')"
    ~header:[ "Configuration"; "Bytes logged"; "Saved vs none" ]
    ~rows:
      [
        row "no optimizations" ~intra:false ~inter:false;
        row "intra only" ~intra:true ~inter:false;
        row "inter only" ~intra:false ~inter:true;
        row "intra + inter" ~intra:true ~inter:true;
      ]

(* A small instrumented world for mode micro-measurements. *)
let micro_world () =
  let model = Cost_model.dec5000 in
  let clock = Clock.simulated () in
  let log_base = Mem_device.create ~name:"log" ~size:(8 * 1024 * 1024) () in
  let log_sim =
    Sim_device.create ~seek_fraction:1.0 ~sector:512 ~base:log_base ~clock
      ~disk:model.Cost_model.log_disk ()
  in
  let log_dev = Sim_device.device log_sim in
  Rvm_m.create_log log_dev;
  let seg_dev = Mem_device.create ~name:"seg" ~size:(8 * 1024 * 1024) () in
  let rvm =
    Rvm_m.initialize ~clock ~model ~log:log_dev ~resolve:(fun _ -> seg_dev) ()
  in
  let base = 16 * 4096 in
  ignore (Rvm_m.map rvm ~vaddr:base ~seg:1 ~seg_off:0 ~len:(1024 * 1024) ());
  (rvm, clock, base, [ log_dev; seg_dev ])

let commit_modes () =
  let txn_wall rvm clock base ~restore ~commit_mode ~n =
    let t0 = Clock.now_us clock in
    for i = 0 to n - 1 do
      let tid =
        Rvm_m.begin_transaction rvm
          ~mode:(if restore then Types.Restore else Types.No_restore)
      in
      let addr = base + (i mod 1000 * 512) in
      Rvm_m.set_range rvm tid ~addr ~len:256;
      Rvm_m.store rvm ~addr (Bytes.make 256 'm');
      Rvm_m.end_transaction rvm tid ~mode:commit_mode
    done;
    if commit_mode = Types.No_flush then Rvm_m.flush rvm;
    (Clock.now_us clock -. t0) /. float_of_int n /. 1e3
  in
  let measure ~restore ~commit_mode =
    let rvm, clock, base, devs = micro_world () in
    let ms = txn_wall rvm clock base ~restore ~commit_mode ~n:300 in
    close_all devs;
    ms
  in
  let flush_restore = measure ~restore:true ~commit_mode:Types.Flush in
  let noflush = measure ~restore:true ~commit_mode:Types.No_flush in
  let norestore = measure ~restore:false ~commit_mode:Types.Flush in
  Report.table
    ~title:
      "Ablation: transaction modes (256-byte update; no-flush amortizes \
       one log force over the batch)"
    ~header:[ "Mode"; "ms/txn (simulated)" ]
    ~rows:
      [
        [ "restore + flush"; Printf.sprintf "%.2f" flush_restore ];
        [ "restore + no-flush"; Printf.sprintf "%.2f" noflush ];
        [ "no-restore + flush"; Printf.sprintf "%.2f" norestore ];
      ]

let startup_latency () =
  let model = Cost_model.dec5000 in
  (* Map a region of [mb] megabytes in the given mode; return (map time,
     time for the first 1000 scattered touches after mapping). Demand mode
     trades startup latency for first-touch faults — the tradeoff behind
     the paper's planned external pager. *)
  let measure mb map_mode =
    let len = mb * 1024 * 1024 in
    let clock = Clock.simulated () in
    let log_dev = Mem_device.create ~name:"log" ~size:(1024 * 1024) () in
    Rvm_m.create_log log_dev;
    let seg_base = Mem_device.create ~name:"seg" ~size:(len + 4096) () in
    let seg_sim =
      Sim_device.create ~seek_fraction:1.0 ~sector:4096 ~base:seg_base ~clock
        ~disk:model.Cost_model.data_disk ()
    in
    let vm =
      Rvm_vm.Vm_sim.create ~clock ~model
        {
          Rvm_vm.Vm_sim.physical_pages = (2 * len / 4096) + 16;
          page_size = 4096;
          fault_disk = model.Cost_model.data_disk;
          evict_disk = model.Cost_model.data_disk;
          evict_in_background = true;
        }
    in
    let options = { Options.default with Options.map_mode } in
    let rvm =
      Rvm_m.initialize ~options ~clock ~model ~vm ~log:log_dev
        ~resolve:(fun _ -> Sim_device.device seg_sim)
        ()
    in
    let base = 16 * 4096 in
    let t0 = Clock.now_us clock in
    ignore (Rvm_m.map rvm ~vaddr:base ~seg:1 ~seg_off:0 ~len ());
    let map_s = (Clock.now_us clock -. t0) /. 1e6 in
    let t1 = Clock.now_us clock in
    let rng = Rvm_util.Rng.create ~seed:3L in
    for _ = 1 to 1000 do
      ignore (Rvm_m.get_u8 rvm ~addr:(base + Rvm_util.Rng.int rng len))
    done;
    let touch_s = (Clock.now_us clock -. t1) /. 1e6 in
    close_all [ log_dev; seg_base ];
    (map_s, touch_s)
  in
  let rows =
    List.map
      (fun mb ->
        let copy_map, copy_touch = measure mb Options.Copy in
        let demand_map, demand_touch = measure mb Options.Demand in
        [
          Printf.sprintf "%d MB" mb;
          Printf.sprintf "%.2f s" copy_map;
          Printf.sprintf "%.2f s" copy_touch;
          Printf.sprintf "%.2f s" demand_map;
          Printf.sprintf "%.2f s" demand_touch;
        ])
      [ 1; 4; 16; 64; 112 ]
  in
  Report.table
    ~title:
      "Ablation: startup latency — en-masse mapping (section 3.2) vs the \
       planned demand-paged external pager; 1000 random first touches \
       after map"
    ~header:
      [ "Region"; "copy map"; "copy touches"; "demand map"; "demand touches" ]
    ~rows
