(** The transaction server harness: one call builds a complete simulated
    world — dec5000 cost model, latency-wrapped log and segment devices,
    an engine instance, a TPC-A layout, the lock manager, admission
    control and the scheduler — runs a seeded load against it, and
    reduces the outcome to a {!result} row. Two results from equal
    configs are byte-identical: every stochastic choice (request mix,
    Zipf keys, arrival times, backoff jitter) flows from [seed] through
    split {!Rvm_util.Rng} streams, and all timing is simulated. *)

type load =
  | Open_loop of float  (** Poisson arrivals at this offered tps *)
  | Closed_loop of { sessions : int; think_us : float }

val load_name : load -> string

val percentile : float array -> float -> float
(** Nearest-rank percentile over a sorted sample array (shared with the
    YCSB harness so both workloads reduce latencies identically). *)

type config = {
  accounts : int;
  shards : int;
      (** 1 = the single-log engine (byte-identical to the pre-shard
          server); N > 1 = the sharded multi-log engine with account [i]
          on shard [i mod N], tellers/branches/audit co-located with their
          account (Payments single-shard, Transfers cross-shard when their
          accounts land on different shards) *)
  zipf_s : float;  (** account-key skew exponent *)
  transfer_pct : int;  (** % of requests that are two-account transfers *)
  requests : int;
  seed : int64;
  load : load;
  batch_max : int;  (** 1 = unbatched: every commit forces the log *)
  max_inflight : int;
  max_queue : int;
  backpressure : float;  (** spool-pressure admission threshold *)
  log_size : int;  (** bytes per log device *)
  trace_capacity : int;  (** 0 = tracing off *)
  background_truncation : bool;
      (** true (default): the engine's inline commit-path truncation
          trigger is disabled and the scheduler reclaims the log from its
          background slot, a few resumable steps per quantum; false:
          classic inline behavior — the commit that crosses the threshold
          pays the whole truncation synchronously *)
  elr : bool;
      (** true (default): early lock release — batched commits drop their
          locks at commit-spool time, acks still wait for the force;
          false: locks ride until the batch force (the contended
          baseline) *)
  read_pct : int;
      (** % of requests that are read-only balance lookups served from
          the version-cache snapshot fast path (default 0) *)
}

val default_config : config
(** 1000 accounts, Zipf s=0.8, 25% transfers, 400 requests, open loop at
    40 tps, batch 8, admission 8/16 with backpressure at 0.9. *)

type result = {
  cfg : config;
  committed : int;  (** write requests committed (lookups counted apart) *)
  reads : int;  (** lookups answered from the snapshot fast path *)
  shed : int;
  aborts : int;
  abort_rate : float;  (** aborts / (aborts + committed), 0 if none *)
  batches : int;
  backpressure_deferrals : int;
  duration_us : float;
  throughput_tps : float;  (** committed writes per second *)
  mean_latency_us : float;
  p50_latency_us : float;  (** exact (nearest-rank over raw samples) *)
  p95_latency_us : float;
  p99_latency_us : float;
  read_p99_latency_us : float;  (** lookup ack latency, 0 when no reads *)
  snapshot_read_fraction : float;  (** reads / (reads + committed) *)
  log_writes : int;  (** summed over the physical log devices *)
  log_syncs : int;
  syncs_per_commit : float;  (** the group-commit payoff metric *)
  writes_per_commit : float;
  cross_committed : int;  (** parallel-commit transactions (0 unsharded) *)
  cross_aborted : int;  (** cross-shard deadlock/early aborts *)
  cross_abort_rate : float;  (** aborted / (committed + aborted), 0 if none *)
}

val run : config -> result

(** {1 Monitored runs}

    Same world, same scheduler, plus windowed telemetry and SLO
    monitoring: a {!Rvm_obs.Timeseries} over the world's registry
    (window default 500ms simulated), gauges for spool pressure, log
    occupancy, the commit/durable LSN horizons and truncation-due, and
    an {!Rvm_obs.Monitor} ticked from the scheduler's quantum hook. The
    monitoring path only reads the clock, so a monitored run's {!result}
    is byte-identical to a bare {!run} of the same config. *)

val default_window_us : float

val run_monitored :
  ?window_us:float ->
  ?rules:Rvm_obs.Monitor.rule list ->
  ?on_window:(Rvm_obs.Monitor.t -> Rvm_obs.Timeseries.window -> unit) ->
  config ->
  result * Rvm_obs.Monitor.t
(** [rules] defaults to {!Rvm_obs.Monitor.default_rules} (with the
    shard-imbalance rule when [cfg.shards > 1]); [on_window] streams
    every closed window as the run progresses (the [serve --monitor]
    health line). *)

(** {1 Open-world entry points}

    Tests need the pieces: the registry (to check [req.root] parents
    [txn.commit]), the engine and placement (to check final balances
    against the serial reference), the raw tally. *)

type backend = Single of Rvm_core.Rvm.t | Sharded of Rvm_shard.Multi.t

type world = {
  engine : Engine.t;
  backend : backend;
      (** [Single] for one shard (the plain RVM engine), [Sharded]
          otherwise *)
  clock : Rvm_util.Clock.t;
  obs : Rvm_obs.Registry.t;
  placement : Placement.t;
  log_devs : Rvm_disk.Device.t array;
      (** outermost log devices — their [stats] count physical
          writes/syncs; one element per shard *)
  seg_devs : Rvm_disk.Device.t array;  (** one data segment per shard *)
}

val shard_layouts : accounts:int -> shards:int -> Rvm_workload.Tpca.layout array
(** The TPC-A placement: shard [s] holds the accounts [i] with
    [i mod shards = s] plus its own tellers, branches and audit trail, at
    disjoint virtual addresses. *)

val devices :
  clock:Rvm_util.Clock.t ->
  log_size:int ->
  seg_sizes:int array ->
  Rvm_disk.Device.t array * Rvm_disk.Device.t array
(** One log and one data segment per entry of [seg_sizes]: memory
    devices behind the dec5000 log-disk and data-disk latency models. *)

val build_world : config -> world

val close_world : world -> unit
(** Close every device of the world. Memory devices stay registered (and
    their images alive) until closed; {!run} and {!run_monitored} close
    their worlds, callers of {!run_with_world} close theirs. *)

val scheduler_with :
  ?plug:(Request.spec -> Scheduler.step list) ->
  ?gen:(Rvm_util.Rng.t -> Request.gen) ->
  config ->
  world ->
  Scheduler.t
(** The one scheduler wiring. [cfg.seed] splits into the request,
    arrival and backoff streams, in that order; [gen] makes the request
    generator from the first (default: the TPC-A mix of [cfg]); [load]
    and [requests] shape the arrivals, the admission fields the
    admission controller, and [batch_max], [background_truncation] and
    [elr] the scheduler. Other fields are ignored. [plug] is passed to
    {!Scheduler.create}. *)

val scheduler_of : config -> world -> Scheduler.t
(** [scheduler_with cfg w]: the TPC-A scheduler of a config. *)

val serve : config -> world -> Scheduler.t -> result
(** Run the scheduler to completion and reduce its tally, counting the
    log devices' writes and syncs over the run. The world stays open. *)

val run_with_world : config -> world * Scheduler.tally
(** {!run} without the reduction: build, run, hand everything back. The
    caller owns the world and closes it with {!close_world}. *)

val sweep :
  base:config -> loads:load list -> batch_sizes:int list -> result list
(** The saturation grid: every load crossed with every batch size, rows
    in [loads]-major order. *)

val result_to_json : result -> Rvm_obs.Json.t
val pp_table : Format.formatter -> result list -> unit
