(* tpca-server: TPC-A through the transaction server on the simulated
   clock. Each round builds a world with [Server.build_world] (2 shards,
   latency-wrapped log and segment devices), replaces its engine with a
   copy whose closures the benchmark times, and drives it with
   [Server.scheduler_of] + [Scheduler.run]: open-loop Poisson arrivals
   at [rate_tps], 20% snapshot lookups, 25% transfers, Zipf 0.8, batched
   commits with early lock release, background truncation enabled over
   a log large enough that a round never needs it. Rounds repeat until
   the host-time budget is spent.

   Host latency of a request runs from the scheduler quantum that
   admits its arrival to its acknowledgement: the benchmark notes the
   host time of every quantum at which the simulated clock advances, and
   maps each request's simulated arrival onto that timeline. *)

module Server = Rvm_server.Server
module Engine = Rvm_server.Engine
module Scheduler = Rvm_server.Scheduler
module Request = Rvm_server.Request
module Placement = Rvm_server.Placement
module Tpca = Rvm_workload.Tpca
module Multi = Rvm_shard.Multi
module Routing = Rvm_shard.Routing
module Rvm = Rvm_core.Rvm
module Segment = Rvm_core.Segment
module Device = Rvm_disk.Device
module Mem_device = Rvm_disk.Mem_device
module Clock = Rvm_util.Clock
module S = Probe.Samples

let shards = 2
(* Below the 2-shard knee of BENCH_shards.json (~387 tps peak): batches
   average ~3 commits and deadlock retries occur. *)
let rate_tps = 160.

(* Short rounds, so a run holds ~20 of them: throughput, set-up and
   recovery are medians over rounds, and each round is one chunk of the
   latency percentiles (see [Common.e2e]). With 20 000-request rounds a
   run held four, and those medians spread 9-13% across runs. *)
let requests = 5_000

(* A round appends ~0.9 MiB per shard, so 8 MiB logs never reach
   truncation. With 20 000-request rounds on 4 MiB logs, truncation ran
   about twice per shard per round, and every truncation stalled
   admission long enough to shed requests: ~5% at 160 tps, still 1-3% at
   60-80 tps or with a 64-1024-slot queue. A shed request is a failed
   operation, and the benchmark's workloads must not fail any.
   Truncation stays measured on coda-commit and ycsb-btree. *)
let log_size = 8 * 1024 * 1024

let config ~seed ~requests =
  {
    Server.default_config with
    Server.shards;
    zipf_s = 0.8;
    transfer_pct = 25;
    read_pct = 20;
    requests;
    seed = Int64.of_int seed;
    load = Server.Open_loop rate_tps;
    log_size;
    background_truncation = true;
  }

(* The engine copy the scheduler runs on. Untraced, only [set_range]
   (declared bytes) and [flush] (host latency of the batch force) are
   instrumented; traced, every closure is a span. *)
let instrument ~trace ~user_bytes ~flush_ns (e : Engine.t) =
  let e =
    {
      e with
      Engine.set_range =
        (fun tid ~addr ~len ->
          user_bytes := !user_bytes + len;
          e.Engine.set_range tid ~addr ~len);
      flush =
        (fun () ->
          let t0 = Probe.cpu_ns () in
          e.Engine.flush ();
          S.add flush_ns (Probe.cpu_ns () - t0));
    }
  in
  if not trace then e
  else
    let k name = Probe.Span.id ("engine." ^ name) in
    let sp = Probe.span in
    let begin_txn = k "begin_txn" and set_range = k "set_range" and load = k "load"
    and store = k "store" and end_txn = k "end_txn" and abort = k "abort"
    and flush = k "flush" and truncation_step = k "truncation_step"
    and truncate = k "truncate" in
    {
      e with
      Engine.begin_txn = (fun ~mode -> sp begin_txn (fun () -> e.Engine.begin_txn ~mode));
      set_range =
        (fun tid ~addr ~len -> sp set_range (fun () -> e.Engine.set_range tid ~addr ~len));
      load = (fun ~addr ~len -> sp load (fun () -> e.Engine.load ~addr ~len));
      store = (fun ~addr b -> sp store (fun () -> e.Engine.store ~addr b));
      end_txn = (fun tid ~mode -> sp end_txn (fun () -> e.Engine.end_txn tid ~mode));
      abort = (fun tid -> sp abort (fun () -> e.Engine.abort tid));
      flush = (fun () -> sp flush (fun () -> e.Engine.flush ()));
      truncation_step = (fun () -> sp truncation_step (fun () -> e.Engine.truncation_step ()));
      truncate = (fun () -> sp truncate (fun () -> e.Engine.truncate ()));
    }

(* {1 Serial reference}

   Every update is a per-cell addition, so the final balances of any
   serializable execution equal the acknowledged writes applied one by
   one. Tellers and branches are per shard: a payment lands on its
   account's shard. *)

type balances = { accounts : int64 array; tellers : int64 array; branches : int64 array }

let reference acked =
  let b =
    {
      accounts = Array.make Server.default_config.Server.accounts 0L;
      tellers = Array.make (shards * Tpca.tellers) 0L;
      branches = Array.make (shards * Tpca.branches) 0L;
    }
  in
  let add arr i d = arr.(i) <- Int64.add arr.(i) d in
  List.iter
    (fun (spec : Request.spec) ->
      match spec.Request.kind with
      | Request.Payment ->
        let s = spec.Request.account mod shards in
        add b.accounts spec.Request.account spec.Request.delta;
        add b.tellers ((s * Tpca.tellers) + spec.Request.teller) spec.Request.delta;
        add b.branches
          ((s * Tpca.branches) + (spec.Request.teller mod Tpca.branches))
          spec.Request.delta
      | Request.Transfer ->
        add b.accounts spec.Request.account spec.Request.delta;
        add b.accounts spec.Request.account2 (Int64.neg spec.Request.delta)
      | Request.Lookup | Request.Ycsb _ -> ())
    acked;
  b

(* Balances read through [load] at the placement's addresses; account
   index [s] anchors shard [s]'s teller and branch records. *)
let balances_equal pl ~load (b : balances) =
  let get addr = Bytes.get_int64_le (load ~addr ~len:8) 0 in
  let ok = ref true in
  Array.iteri (fun i v -> if get (Placement.account_addr pl i) <> v then ok := false) b.accounts;
  Array.iteri
    (fun id v ->
      if get (Placement.teller_addr pl ~anchor:(id / Tpca.tellers) (id mod Tpca.tellers)) <> v
      then ok := false)
    b.tellers;
  Array.iteri
    (fun id v ->
      if get (Placement.branch_addr pl ~anchor:(id / Tpca.branches) (id mod Tpca.branches)) <> v
      then ok := false)
    b.branches;
  !ok

(* A copy of a device's whole contents, read through its stack. *)
let image (d : Device.t) = Mem_device.of_bytes (Device.read_bytes d ~off:0 ~len:d.Device.size)

(* Flush, copy every log and segment image, and recover the copies with
   [Multi.initialize]; returns the recovery time and the recovered
   world's balances check. *)
let crash_and_recover (w : Server.world) b =
  w.Server.engine.Engine.flush ();
  let m = match w.Server.backend with Server.Sharded m -> m | Server.Single _ -> assert false in
  let segs =
    Array.init shards (fun s -> image (Segment.device (Rvm.segment (Multi.shard m s) (s + 1))))
  in
  let logs = Array.map image w.Server.log_devs in
  let routing = Routing.of_table ~shards (List.init shards (fun s -> (s + 1, s))) in
  Gc.compact ();
  let t0 = Probe.cpu_ns () in
  let m' =
    Probe.span (Probe.Span.id "rvm.recover") (fun () ->
        Multi.initialize ~routing ~logs ~resolve:(fun seg -> segs.(seg - 1)) ())
  in
  let ms = float_of_int (Probe.cpu_ns () - t0) /. 1e6 in
  let pl = w.Server.placement in
  for s = 0 to shards - 1 do
    let l = Placement.layout pl s in
    ignore (Multi.map m' ~vaddr:l.Tpca.base ~seg:(s + 1) ~seg_off:0 ~len:l.Tpca.total_len ())
  done;
  (ms, balances_equal pl ~load:(fun ~addr ~len -> Multi.load m' ~addr ~len) b)

(* {1 Rounds} *)

(* Totals over the rounds of one kind (untraced, or traced). Host
   samples and the measured-phase totals live in [p]. *)
type acc = {
  p : Common.phase;
  mutable setup : float list;
  mutable attempted : int;
  mutable shed : int;
  mutable committed : int;
  mutable reads : int;
  mutable aborts : int;
  mutable batches : int;
  mutable quanta : int;
  mutable cross_committed : int;
  mutable cross_aborted : int;
  mutable dev : int * int;
  mutable recover_ms : float list;
  mutable live_ok : bool;
  mutable recovered_ok : bool;
  mutable digest : int;
  mutable counters : (string * int) list;  (** summed registry deltas *)
}

let acc () =
  {
    p = Common.phase (); setup = []; attempted = 0; shed = 0; committed = 0; reads = 0;
    aborts = 0; batches = 0; quanta = 0; cross_committed = 0; cross_aborted = 0;
    dev = (0, 0); recover_ms = []; live_ok = true;
    recovered_ok = true; digest = 0; counters = [];
  }

let add_counters a c0 c1 =
  a.counters <-
    List.map
      (fun (name, _) ->
        (name, Layers.delta c0 c1 name + Option.value (List.assoc_opt name a.counters) ~default:0))
      c1

let counter a name = Option.value (List.assoc_opt name a.counters) ~default:0

(* First index of the ascending samples [a] holding a value >= [v]. *)
let lower_bound (a : S.t) v =
  let lo = ref 0 and hi = ref (S.count a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Bigarray.Array1.get a.S.a mid < v then lo := mid + 1 else hi := mid
  done;
  !lo

let round ~trace a ~seed ~requests =
  let cfg = config ~seed ~requests in
  let p = a.p in
  Gc.full_major ();
  let t0 = Probe.cpu_ns () in
  let w = Server.build_world cfg in
  a.setup <- Probe.cpu_seconds_since t0 :: a.setup;
  let user_bytes = ref 0 in
  let eng = instrument ~trace ~user_bytes ~flush_ns:p.Common.flush_ns w.Server.engine in
  let sched = Server.scheduler_of cfg { w with Server.engine = eng } in
  let q_sim = S.create () and q_host = S.create () and last = ref (-1) in
  Scheduler.set_on_quantum sched (fun () ->
      let s = int_of_float (Clock.now_us w.Server.clock *. 1e3) in
      if s > !last then begin
        S.add q_sim s;
        S.add q_host (Probe.cpu_ns ());
        last := s
      end);
  let acks = ref [] in
  Scheduler.set_hooks sched ~on_spool:ignore ~on_ack:(fun r ->
      acks := (r, Probe.cpu_ns ()) :: !acks);
  let logs = Array.to_list w.Server.log_devs in
  let c0 = Rvm_obs.Registry.counters w.Server.obs and d0 = Layers.dev_stats logs in
  Gc.compact ();
  let words0 = Probe.alloc_words () in
  let h0 = Probe.now_ns () and cpu0 = Probe.cpu_ns () in
  Probe.Span.enabled := trace;
  let tally = Probe.span (Probe.Span.id "scheduler.run") (fun () -> Scheduler.run sched) in
  Probe.Span.enabled := false;
  let run_s = Probe.seconds_since h0 and run_cpu_s = Probe.cpu_seconds_since cpu0 in
  p.Common.alloc_words <- p.Common.alloc_words +. (Probe.alloc_words () -. words0);
  let c1 = Rvm_obs.Registry.counters w.Server.obs and d1 = Layers.dev_stats logs in
  add_counters a c0 c1;
  (let dw, ds = Layers.dev_delta d0 d1 in
   a.dev <- (fst a.dev + dw, snd a.dev + ds));
  let ops = tally.Scheduler.committed + tally.Scheduler.reads in
  p.Common.ops <- p.Common.ops + ops;
  p.Common.seconds <- p.Common.seconds +. run_s;
  p.Common.cpu_seconds <- p.Common.cpu_seconds +. run_cpu_s;
  p.Common.rates <- (float_of_int ops /. run_cpu_s) :: p.Common.rates;
  p.Common.sim_us <- p.Common.sim_us +. tally.Scheduler.end_us;
  p.Common.user_bytes <- p.Common.user_bytes + !user_bytes;
  Array.iter
    (fun us -> S.add p.Common.sim_ns (int_of_float (us *. 1e3)))
    tally.Scheduler.latencies_us;
  a.attempted <- a.attempted + requests;
  a.shed <- a.shed + tally.Scheduler.shed;
  a.committed <- a.committed + tally.Scheduler.committed;
  a.reads <- a.reads + tally.Scheduler.reads;
  a.aborts <- a.aborts + tally.Scheduler.aborts;
  a.batches <- a.batches + tally.Scheduler.batches;
  a.quanta <- a.quanta + tally.Scheduler.iterations;
  (match w.Server.backend with
  | Server.Sharded m ->
    a.cross_committed <- a.cross_committed + Multi.cross_committed m;
    a.cross_aborted <- a.cross_aborted + Multi.cross_aborted m
  | Server.Single _ -> ());
  let acked = List.rev !acks in
  List.iter
    (fun ((r : Request.t), h) ->
      let i = lower_bound q_sim (int_of_float (r.Request.arrival_us *. 1e3)) in
      let lat = h - if i < S.count q_host then Bigarray.Array1.get q_host.S.a i else h in
      S.add p.Common.op_ns lat;
      let spec = r.Request.spec in
      (match spec.Request.kind with
      | Request.Lookup -> S.add p.Common.read_ns lat
      | _ -> S.add p.Common.update_ns lat);
      a.digest <-
        ((a.digest * 31) + (spec.Request.id * 7) + spec.Request.account
        + Int64.to_int spec.Request.delta)
        land max_int)
    acked;
  List.iter S.mark [ p.Common.op_ns; p.Common.read_ns; p.Common.update_ns; p.Common.flush_ns ];
  if p.Common.heap_words = 0 then p.Common.heap_words <- Common.heap_words ();
  let b = reference (List.map (fun ((r : Request.t), _) -> r.Request.spec) acked) in
  if not (balances_equal w.Server.placement ~load:w.Server.engine.Engine.load b) then
    a.live_ok <- false;
  Probe.Span.enabled := trace;
  let ms, ok = crash_and_recover w b in
  Probe.Span.enabled := false;
  a.recover_ms <- ms :: a.recover_ms;
  if not ok then a.recovered_ok <- false;
  (* Memory devices stay registered until closed. *)
  Array.iter (fun (d : Device.t) -> d.Device.close ()) w.Server.log_devs;
  (match w.Server.backend with
  | Server.Sharded m ->
    for s = 0 to shards - 1 do
      (Segment.device (Rvm.segment (Multi.shard m s) (s + 1))).Device.close ()
    done
  | Server.Single _ -> ())

(* Rounds of [requests] until the host-time budget is spent (the
   self-test instead runs one fixed-size round of each kind). A traced
   run alternates untraced and traced rounds, so drift over the run
   lands on both sides of the tracing-overhead ratio. *)
let run_rounds ~trace ~seed budget =
  let plain = acc () and traced = acc () in
  let kind n = if trace && n mod 2 = 1 then (true, traced) else (false, plain) in
  (match budget with
  | Budget.Ops size ->
    for n = 0 to if trace then 1 else 0 do
      let t, a = kind n in
      round ~trace:t a ~seed:((seed * 1_000) + n) ~requests:size
    done
  | Budget.Seconds _ ->
    let n = ref 0 and t_start = Probe.now_ns () in
    while !n < (if trace then 2 else 1) || not (Budget.over budget ~ops:0 ~t_start) do
      let t, a = kind !n in
      round ~trace:t a ~seed:((seed * 1_000) + !n) ~requests;
      incr n
    done);
  (plain, traced)

let run ~seed ~budget ~trace =
  let plain, traced = run_rounds ~trace ~seed budget in
  let spans = Probe.Span.snapshot () in
  let both f = f plain + f traced in
  let checks =
    [
      ( "tpca-server: live balances equal the serial reference of acked requests",
        plain.live_ok && traced.live_ok );
      ( "tpca-server: recovered balances equal the serial reference",
        plain.recovered_ok && traced.recovered_ok );
    ]
  in
  let report metrics checks notes =
    {
      Report.workload = "tpca-server";
      checks;
      attempted = both (fun a -> a.attempted);
      failed = both (fun a -> a.shed);
      digest = plain.digest;
      notes;
      metrics;
    }
  in
  if not trace then
    report
      (Common.e2e ~setup:plain.setup ~p:plain.p ~recover_ms:plain.recover_ms
         ~sim_ops:plain.committed ~log_bytes:(counter plain "log.append.bytes"))
      checks (Common.notes ~p:plain.p)
  else begin
    (* The layer table covers the host time of the traced
       [Scheduler.run] calls; recoveries are reported apart. *)
    let spans =
      {
        Probe.Span.spans =
          List.filter
            (fun (g : Probe.Span.agg) -> g.Probe.Span.name <> "rvm.recover")
            spans.Probe.Span.spans;
        top_s = Probe.Span.busy_s "scheduler.run";
      }
    in
    let self name =
      List.fold_left
        (fun acc (g : Probe.Span.agg) ->
          if g.Probe.Span.name = name then float_of_int g.Probe.Span.self /. 1e9 else acc)
        0. spans.Probe.Span.spans
    in
    let counters name = both (fun a -> counter a name) in
    let metrics, table, within =
      Layers.per_layer ~workload:"tpca-server" ~p:traced.p
        ~untraced:(plain.p.Common.rates, plain.p.Common.ops)
        ~committed:(counters "txn.committed") ~counters
        ~dev:(both (fun a -> fst a.dev), both (fun a -> snd a.dev))
        ~server:
          (Some
             {
               Layers.self_s = self "scheduler.run";
               quanta = both (fun a -> a.quanta);
               aborts = both (fun a -> a.aborts);
               committed = both (fun a -> a.committed);
               reads = both (fun a -> a.reads);
               batches = both (fun a -> a.batches);
               shed = both (fun a -> a.shed);
               cross_committed = both (fun a -> a.cross_committed);
               cross_aborted = both (fun a -> a.cross_aborted);
             })
        ~vm:None
        ~recover:Probe.Span.(calls "rvm.recover", busy_s "rvm.recover")
        spans
    in
    report metrics
      (checks @ [ ("tpca-server: layer table adds up to the traced wall time", within) ])
      (table @ [ Layers.write_trace "tpca-server" ])
  end
