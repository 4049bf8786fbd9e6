(** Crash-point explorer for the sharded multi-log engine.

    The single-log {!Explorer} proves that every crash recovers to a
    committed prefix of one log. The sharded engine adds a second failure
    axis: a crash can land {e between} one shard's force and another's in
    the middle of a parallel-commit round, leaving the cross-shard
    transaction's evidence — per-shard intent records plus the staged
    record on the coordinator — partially durable. All N log and N segment
    devices are recorded by one {!Crash_lab}, whose crash points are
    boundaries in the {e global} write/sync order, so the inter-shard
    boundaries of every commit round are crash points.

    Each reconstructed image set is recovered with
    {!Rvm_shard.Multi.reinitialize} — which runs the cross-shard
    status-resolution pass before any shard replays — and the recovered
    region bytes are checked against a pure per-shard model: there must
    exist per-shard prefix lengths and one global set of decided-committed
    cross transactions explaining every shard's bytes. All-or-none
    application is structural in the check: a decided transaction must
    appear in every participant's surviving prefix, an undecided one in
    none. *)

type range = int * int * char

type op =
  | Local of {
      shard : int;
      ranges : range list;
      mode : Rvm_core.Types.commit_mode;
    }
  | Cross of {
      parts : (int * range list) list;
          (** participant shard -> ranges in that shard's region; at
              least two distinct shards, ascending *)
      mode : Rvm_core.Types.commit_mode;
    }
  | Flush  (** global [Multi.flush]: all shards forced, pendings resolved *)
  | Truncate
  | Step of int
      (** [n] rounds of {!Rvm_shard.Multi.truncation_step} — one bounded
          background step on every due shard's truncator per round *)

type config = {
  shards : int;
  region_len : int;  (** bytes of each shard's mapped region *)
  log_size : int;  (** per shard *)
  sector : int;
  exhaustive : bool;
  max_torn_per_write : int;
  truncation_mode : Rvm_core.Types.truncation_mode;
  group_commit : bool;
  mid_truncation : bool;
      (** disable the inline commit-path trigger so [Step] ops leave
          per-shard truncation runs suspended between bounded steps; the
          global crash enumeration then covers every step boundary of
          every shard's truncator, interleaved with parallel-commit rounds *)
}

val default_config : config
(** Two shards, epoch truncation, group commit on. *)

val generate :
  ?mid_truncation:bool ->
  rng:Rvm_util.Rng.t ->
  ops:int ->
  shards:int ->
  region_len:int ->
  unit ->
  op list
(** Random workload biased toward cross-shard commits (capped at 6 per
    workload to keep decision-set enumeration cheap). [mid_truncation]
    trades most [Truncate] ops for short [Step] bursts. *)

val to_string : op list -> string
val op_to_string : op -> string

(** {1 Sharded engines over recorded devices}

    Shared with {!Elr_check}. Shard [s] owns segment [seg_of_shard s]. *)

val seg_of_shard : int -> int

val record :
  Crash_lab.lab ->
  options:Rvm_core.Options.t ->
  ?clock:Rvm_util.Clock.t ->
  log_size:int ->
  seg_sizes:int array ->
  unit ->
  Rvm_shard.Multi.t * Crash_lab.dev array * Crash_lab.dev array
(** One shard per entry of [seg_sizes]: format the logs, attach every log
    and segment device, and open the engine over them with the lab's
    registry. Returns the engine, the logs and the segments. *)

val replay :
  options:Rvm_core.Options.t ->
  (Crash_lab.dev -> Rvm_disk.Device.t) ->
  logs:Crash_lab.dev array ->
  segs:Crash_lab.dev array ->
  Rvm_shard.Multi.t
(** Recover a crash image set, mounted by {!Crash_lab.explore}'s
    argument; cross-shard status resolution runs before any replay. *)

(** {1 Exploration} *)

type extras = {
  commits : int;  (** commit entries summed across shards *)
  cross : int;  (** cross-shard transactions issued *)
}

type outcome = extras Crash_lab.outcome

val run : ?config:config -> op list -> outcome
val violates : ?config:config -> op list -> bool
val pp_outcome : Format.formatter -> outcome -> unit
