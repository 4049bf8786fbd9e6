module Options = Rvm_core.Options
module Clock = Rvm_util.Clock
module Registry = Rvm_obs.Registry
module Multi = Rvm_shard.Multi
module Tpca = Rvm_workload.Tpca
module Request = Rvm_server.Request
module Placement = Rvm_server.Placement
module Engine = Rvm_server.Engine
module Scheduler = Rvm_server.Scheduler
module Server = Rvm_server.Server

type config = {
  shards : int;
  accounts : int;
  requests : int;
  seed : int64;
  batch_max : int;
  zipf_s : float;
  read_pct : int;
  transfer_pct : int;
  rate_tps : float;
  log_size : int;
  sector : int;
  exhaustive : bool;
  max_torn_per_write : int;
}

let default_config =
  {
    shards = 1;
    accounts = 32;
    requests = 24;
    seed = 7L;
    batch_max = 4;
    zipf_s = 0.99;
    read_pct = 25;
    transfer_pct = 30;
    rate_tps = 400.;
    log_size = 256 * 1024;
    sector = 512;
    exhaustive = false;
    max_torn_per_write = 4;
  }

(* What the recorded run logs through the scheduler hooks. *)

type spooled = {
  sp_id : int;
  sp_shards : int list;  (* participant shards, sorted *)
  sp_spec : Request.spec;
  sp_audit : int;  (* vaddr of the request's audit slot *)
}

type ack =
  | Ack_write of { a_id : int; a_event : int }
  | Ack_read of { a_id : int; a_deps : int list; a_event : int }

type extras = {
  commits : int;  (* write requests committed by the recorded run *)
  cross : int;  (* of which cross-shard parallel commits *)
  reads : int;  (* lookups acked by the recorded run *)
  elr_released : int;  (* elr.released_early counter of the recorded run *)
}

type outcome = extras Crash_lab.outcome

let page_size = 4096

let map_layouts m layouts =
  Array.iteri
    (fun s (l : Tpca.layout) ->
      ignore
        (Multi.map m ~vaddr:l.Tpca.base ~seg:(Shard_check.seg_of_shard s)
           ~seg_off:0 ~len:l.Tpca.total_len ()))
    layouts

let make_options () =
  (* The workloads are small enough that the log never fills; keep both
     truncation triggers quiet so every device event is commit traffic. *)
  { Options.default with Options.auto_truncate = false }

(* The recorded run: a real server world — sharded engine, lock manager,
   admission, the ELR scheduler — over memory devices attached to [lab],
   with the scheduler hooks logging commit-spool order and the exact
   device-event index at which every ack left the server. *)
let run_workload lab cfg =
  let n = cfg.shards in
  let layouts = Server.shard_layouts ~accounts:cfg.accounts ~shards:n in
  let clock = Clock.simulated () in
  let m, logs, segs =
    Shard_check.record lab ~options:(make_options ()) ~clock
      ~log_size:cfg.log_size
      ~seg_sizes:(Array.map (fun l -> l.Tpca.total_len + page_size) layouts)
      ()
  in
  map_layouts m layouts;
  let world =
    {
      Server.engine = Engine.of_multi m;
      backend = Server.Sharded m;
      clock;
      obs = Crash_lab.obs lab;
      placement = Placement.make ~layouts;
      log_devs = Array.map Crash_lab.device logs;
      seg_devs = Array.map Crash_lab.device segs;
    }
  in
  let sched =
    Server.scheduler_of
      {
        Server.default_config with
        Server.accounts = cfg.accounts;
        requests = cfg.requests;
        seed = cfg.seed;
        load = Server.Open_loop cfg.rate_tps;
        batch_max = cfg.batch_max;
        zipf_s = cfg.zipf_s;
        read_pct = cfg.read_pct;
        transfer_pct = cfg.transfer_pct;
        (* Queue deep enough that nothing sheds: membership checking
           wants every generated write to either commit or still be in
           flight at the crash, never refused. *)
        max_inflight = 8;
        max_queue = cfg.requests + 8;
        backpressure = 0.95;
        elr = true;
      }
      world
  in
  let spool_order = ref [] (* newest first *) in
  let acks = ref [] in
  Scheduler.set_hooks sched
    ~on_spool:(fun r ->
      let s = r.Request.spec in
      let shards_touched =
        List.sort_uniq compare
          [ s.Request.account mod n; s.Request.account2 mod n ]
      in
      spool_order :=
        {
          sp_id = s.Request.id;
          sp_shards = shards_touched;
          sp_spec = s;
          sp_audit = r.Request.audit_addr;
        }
        :: !spool_order)
    ~on_ack:(fun r ->
      let e = Crash_lab.event_count lab in
      let id = r.Request.spec.Request.id in
      match r.Request.spec.Request.kind with
      | Request.Lookup ->
        acks :=
          Ack_read { a_id = id; a_deps = r.Request.dep_writers; a_event = e }
          :: !acks
      | Request.Payment | Request.Transfer | Request.Ycsb _ ->
        acks := Ack_write { a_id = id; a_event = e } :: !acks);
  let tally = Scheduler.run sched in
  let elr_released =
    Rvm_obs.Counter.get
      (Registry.counter (Crash_lab.obs lab) "elr.released_early")
  in
  (logs, segs, layouts, List.rev !spool_order, List.rev !acks, tally,
   elr_released)

(* Recover a crash image set and return its memory reader. *)
let recover layouts mount ~logs ~segs =
  let m = Shard_check.replay ~options:(make_options ()) mount ~logs ~segs in
  map_layouts m layouts;
  fun addr -> Multi.get_i64 m ~addr

(* Every balance cell as (name, address): accounts, then each shard's
   tellers, then each shard's branches. *)
let balance_cells cfg layouts =
  let pl = Placement.make ~layouts in
  let per_shard n addr =
    List.concat
      (List.mapi
         (fun s l -> List.init n (fun i -> ((s * n) + i, addr l i)))
         (Array.to_list layouts))
  in
  let named what =
    List.map (fun (i, a) -> (Printf.sprintf "%s %d" what i, a))
  in
  named "account"
    (List.init cfg.accounts (fun i -> (i, Placement.account_addr pl i)))
  @ named "teller" (per_shard Tpca.tellers Tpca.teller_addr)
  @ named "branch" (per_shard Tpca.branches Tpca.branch_addr)

(* Serial reference over the recovered-membership set, as expected balance
   per cell address (absent = 0): per-cell additions commute, so any
   serializable execution of exactly the set [S] lands on these
   balances. *)
let expected_balances cfg layouts (survivors : spooled list) =
  let pl = Placement.make ~layouts in
  let cells = Hashtbl.create 64 in
  let add addr d =
    Hashtbl.replace cells addr
      (Int64.add d (Option.value (Hashtbl.find_opt cells addr) ~default:0L))
  in
  List.iter
    (fun e ->
      let s = e.sp_spec in
      let account = Placement.account_addr pl in
      match s.Request.kind with
      | Request.Payment ->
        let l = layouts.(s.Request.account mod cfg.shards) in
        add (account s.Request.account) s.Request.delta;
        add (Tpca.teller_addr l s.Request.teller) s.Request.delta;
        add
          (Tpca.branch_addr l (s.Request.teller mod Tpca.branches))
          s.Request.delta
      | Request.Transfer ->
        add (account s.Request.account) s.Request.delta;
        add (account s.Request.account2) (Int64.neg s.Request.delta)
      | Request.Lookup | Request.Ycsb _ -> ())
    survivors;
  fun addr -> Option.value (Hashtbl.find_opt cells addr) ~default:0L

let run ?(config = default_config) () =
  if config.shards < 1 then invalid_arg "Elr_check.run: shards must be >= 1";
  if config.accounts < config.requests then
    (* Audit cursors draw one slot per commit; keeping requests under the
       per-shard audit capacity (2x accounts per shard) guarantees no
       wrap-around overwrites the membership words the checks read. *)
    invalid_arg "Elr_check.run: accounts must be >= requests";
  let lab = Crash_lab.create () in
  let logs, segs, layouts, spool_order, acks, tally, elr_released =
    run_workload lab config
  in
  let cells = balance_cells config layouts in
  let judge (crash : Crash_lab.crash_point) word =
    (* Membership: a committed write survived iff its audit slot's id word
       (24 bytes into the slot) replayed; the slot is written in the same
       transaction as the balances, so the whole commit stands or falls
       with it. *)
    let survives e = word (e.sp_audit + 24) = Int64.of_int (e.sp_id + 1) in
    let survivors = List.filter survives spool_order in
    let in_s id =
      List.exists (fun e -> e.sp_id = id && survives e) spool_order
    in
    (* (a) No ack precedes durability: every write acked before the crash
       must have been recovered, and every lookup acked before the crash
       must only have exposed state of recovered writers. *)
    let ack_violation () =
      List.find_map
        (fun a ->
          match a with
          | Ack_write { a_id; a_event } ->
            if a_event <= crash.upto && not (in_s a_id) then
              Some
                (Printf.sprintf
                   "write %d was acked at event %d but did not survive the \
                    crash"
                   a_id a_event)
            else None
          | Ack_read { a_id; a_deps; a_event } ->
            if a_event > crash.upto then None
            else
              List.find_opt (fun w -> not (in_s w)) a_deps
              |> Option.map (fun w ->
                     Printf.sprintf
                       "lookup %d was acked at event %d but observed writer \
                        %d, which did not survive the crash"
                       a_id a_event w))
        acks
    in
    (* (b) Prefix closure: per shard, the survivors must be a prefix of the
       spool (= log append) order; the only legal holes are cross-shard
       transactions, whose intents recovery may have resolved to
       aborted. *)
    let prefix_violation () =
      List.find_map
        (fun s ->
          let rec scan seen_hole = function
            | [] -> None
            | e :: rest when survives e -> (
              match seen_hole with
              | Some h ->
                Some
                  (Printf.sprintf
                     "shard %d: single-shard commit %d is missing but later \
                      commit %d survived (hole in the redo prefix)"
                     s h e.sp_id)
              | None -> scan seen_hole rest)
            | e :: rest ->
              scan
                (if List.length e.sp_shards > 1 || seen_hole <> None then
                   seen_hole
                 else Some e.sp_id)
                rest
          in
          scan None (List.filter (fun e -> List.mem s e.sp_shards) spool_order))
        (List.init config.shards Fun.id)
    in
    (* (c) Serial equivalence: recovered balances equal the commutative
       reference applied to exactly the survivor set — early lock release
       must never let a successor's update survive a crash its
       predecessor's didn't feed into. *)
    let balance_violation () =
      let expected = expected_balances config layouts survivors in
      List.find_map
        (fun (cell, addr) ->
          let want = expected addr and got = word addr in
          if want = got then None
          else
            Some
              (Printf.sprintf
                 "balances diverge from the %d-survivor serial reference: \
                  %s: expected %Ld, recovered %Ld"
                 (List.length survivors) cell want got))
        cells
    in
    match
      List.find_map
        (fun check -> check ())
        [ ack_violation; prefix_violation; balance_violation ]
    with
    | Some reason -> Error reason
    | None -> Ok ()
  in
  let o =
    Crash_lab.explore lab ~sector:config.sector ~exhaustive:config.exhaustive
      ~max_torn_per_write:config.max_torn_per_write
      ~recover:(fun mount -> recover layouts mount ~logs ~segs)
      ~judge ()
  in
  let cross =
    List.length (List.filter (fun e -> List.length e.sp_shards > 1) spool_order)
  in
  {
    o with
    extra =
      {
        commits = tally.Scheduler.committed;
        cross;
        reads = tally.Scheduler.reads;
        elr_released;
      };
  }

let pp_outcome =
  Crash_lab.pp_outcome (fun ppf x ->
      Format.fprintf ppf
        "%d commits (%d cross-shard, %d early releases) + %d snapshot reads"
        x.commits x.cross x.elr_released x.reads)
