module Mem_device = Rvm_disk.Mem_device
module Rvm_m = Rvm_core.Rvm
module Options = Rvm_core.Options
module Coda = Rvm_workload.Coda

let run_machine ~seed (profile : Coda.profile) =
  let log_dev = Mem_device.create ~name:"log" ~size:(16 * 1024 * 1024) () in
  Rvm_m.create_log log_dev;
  let seg_dev = Mem_device.create ~name:"seg" ~size:(4 * 1024 * 1024) () in
  let options =
    { Options.default with Options.spool_max_bytes = 4 * 1024 * 1024 }
  in
  let rvm = Rvm_m.initialize ~options ~log:log_dev ~resolve:(fun _ -> seg_dev) () in
  let base = 16 * 4096 in
  let len = 1024 * 1024 in
  ignore (Rvm_m.map rvm ~vaddr:base ~seg:1 ~seg_off:0 ~len ());
  let r = Coda.run profile rvm ~base ~len ~seed in
  (* Memory devices keep their whole image registered until closed. *)
  log_dev.Rvm_disk.Device.close ();
  seg_dev.Rvm_disk.Device.close ();
  r

let run ?(seed = 42L) () =
  List.map (fun p -> run_machine ~seed p) Coda.machines

let print results =
  let rows =
    List.map
      (fun (r : Coda.result) ->
        let p = r.Coda.profile in
        let paper = p.Coda.paper in
        [
          p.Coda.name;
          (match p.Coda.kind with Coda.Server -> "server" | Coda.Client -> "client");
          string_of_int r.Coda.txns_run;
          string_of_int r.Coda.bytes_logged;
          Report.pct r.Coda.intra_pct;
          Report.pct paper.Coda.p_intra_pct;
          Report.pct r.Coda.inter_pct;
          Report.pct paper.Coda.p_inter_pct;
          Report.pct r.Coda.total_pct;
          Report.pct paper.Coda.p_total_pct;
        ])
      results
  in
  Report.table
    ~title:
      "Table 2: Savings due to RVM optimizations, measured vs paper \
       (transaction streams scaled 1:100)"
    ~header:
      [
        "Machine"; "Type"; "Txns"; "Bytes logged"; "Intra"; "(paper)";
        "Inter"; "(paper)"; "Total"; "(paper)";
      ]
    ~rows
