open Rvm_core
module Mem_device = Rvm_disk.Mem_device

type config = {
  region_len : int;
  log_size : int;
  sector : int;
  exhaustive : bool;
  max_torn_per_write : int;
  truncation_mode : Types.truncation_mode;
  group_commit : bool;
  mid_truncation : bool;
}

let default_config =
  {
    region_len = 2 * 4096;
    log_size = 64 * 1024;
    sector = 512;
    exhaustive = false;
    max_torn_per_write = 12;
    truncation_mode = Types.Epoch;
    group_commit = true;
    mid_truncation = false;
  }

type write_point = {
  event : int;
  dev : string;
  off : int;
  len : int;
  variants : int;
}

type extras = { commits : int; durable : int; write_points : write_point list }
type outcome = extras Crash_lab.outcome

let engine_options ~truncation_mode ~group_commit ~mid_truncation =
  {
    Options.default with
    Options.truncation_mode;
    (* Mid-truncation exploration needs the truncator due after the
       first couple of commits so [Step] ops actually advance a run. *)
    truncation_threshold = (if mid_truncation then 0.05 else 0.4);
    group_commit;
    (* Mid-truncation exploration drives the truncator from [Step] ops
       and needs the run left suspended between them, so the inline
       commit-path trigger (which would run it to completion) is off. *)
    auto_truncate = not mid_truncation;
  }

(* Run the workload, returning the reference model and the durability
   checkpoints [(events_recorded, commits_durable)]. *)
let run_workload lab rvm config ops =
  let region = Rvm.map rvm ~seg:1 ~seg_off:0 ~len:config.region_len () in
  let base = region.Region.vaddr in
  let model = Model.create ~region_len:config.region_len in
  let checkpoints = ref [ (0, 0) ] in
  let note_durable () =
    Model.mark_durable model;
    checkpoints :=
      (Crash_lab.event_count lab, Model.durable_count model) :: !checkpoints
  in
  List.iter
    (fun op ->
      match op with
      | Workload.Commit { ranges; mode } ->
        let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
        let writes =
          List.map
            (fun (off, len, c) ->
              let data = Bytes.make len c in
              Rvm.modify rvm tid ~addr:(base + off) data;
              (off, data))
            ranges
        in
        Rvm.end_transaction rvm tid ~mode;
        Model.commit model writes;
        (* A flush-mode commit drains the spool first, so every commit so
           far is durable once its force returns. Forces the engine takes
           on its own (spool overflow, truncation) are deliberately not
           counted: under-approximating the required durable prefix is
           sound — it can never produce a false violation. *)
        if mode = Types.Flush then note_durable ()
      | Workload.Abort ranges ->
        let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
        List.iter
          (fun (off, len, c) ->
            Rvm.modify rvm tid ~addr:(base + off) (Bytes.make len c))
          ranges;
        Rvm.abort_transaction rvm tid
      | Workload.Flush ->
        Rvm.flush rvm;
        note_durable ()
      | Workload.Truncate -> Rvm.truncate rvm
      | Workload.Step n ->
        for _ = 1 to n do
          ignore (Rvm.truncation_step rvm)
        done)
    ops;
  (model, !checkpoints)

let run ?(config = default_config) ops =
  let options =
    engine_options ~truncation_mode:config.truncation_mode
      ~group_commit:config.group_commit ~mid_truncation:config.mid_truncation
  in
  let lab = Crash_lab.create () in
  let log_mem = Mem_device.create ~name:"check-log" ~size:config.log_size () in
  let seg_mem =
    Mem_device.create ~name:"check-seg" ~size:config.region_len ()
  in
  Rvm.create_log log_mem;
  (* Attach after formatting: crash point zero is the freshly formatted,
     empty state, which must recover to the blank region. *)
  let log = Crash_lab.attach lab log_mem in
  let seg = Crash_lab.attach lab seg_mem in
  let rvm =
    Rvm.reinitialize ~options ~obs:(Crash_lab.obs lab)
      ~log:(Crash_lab.device log)
      ~resolve:(fun _ -> Crash_lab.device seg)
      ()
  in
  let model, checkpoints = run_workload lab rvm config ops in
  (* Checkpoints only grow, so the newest one at or before [k] holds. *)
  let required_at k = snd (List.find (fun (e, _) -> e <= k) checkpoints) in
  let commits = Model.commit_count model in
  let write_points = ref [] in
  let o =
    Crash_lab.explore lab ~sector:config.sector ~exhaustive:config.exhaustive
      ~max_torn_per_write:config.max_torn_per_write
      ~on_write:(fun ~event d ~off ~len ~variants ->
        let dev = if d == log then "log" else "seg" in
        write_points := { event; dev; off; len; variants } :: !write_points)
      ~recover:(fun mount ->
        let rvm =
          Rvm.reinitialize ~options ~log:(mount log)
            ~resolve:(fun _ -> mount seg)
            ()
        in
        let r = Rvm.map rvm ~seg:1 ~seg_off:0 ~len:config.region_len () in
        Rvm.load rvm ~addr:r.Region.vaddr ~len:config.region_len)
      ~judge:(fun crash recovered ->
        let required = required_at crash.Crash_lab.upto in
        match Model.matching_prefix model ~min:required recovered with
        | Some _ -> Ok ()
        | None ->
          Error
            (Printf.sprintf "%s (required %d of %d commits durable)"
               (Model.describe_mismatch model ~min:required recovered)
               required commits))
      ()
  in
  {
    o with
    extra =
      {
        commits;
        durable = Model.durable_count model;
        write_points = List.rev !write_points;
      };
  }

let violates ?config ops = (run ?config ops).violations <> []

let pp_outcome =
  Crash_lab.pp_outcome (fun ppf x ->
      Format.fprintf ppf "%d commits (%d known durable)" x.commits x.durable)
