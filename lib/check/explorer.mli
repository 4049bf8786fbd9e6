(** Deterministic crash-point explorer for the single-log engine.

    Runs a scripted workload against devices recorded by a {!Crash_lab},
    which re-crashes it at every crash point of its model. Each crash
    image set is recovered with [Rvm.reinitialize] and the recovered
    region bytes are checked against the pure {!Model}: they must equal
    the state after some prefix of the commits, at least every commit
    known durable at the crash point. One run of the workload yields
    hundreds of checked crash scenarios, turning the randomized property
    of [test/test_props.ml] into an exhaustive sweep. *)

type config = {
  region_len : int;  (** bytes of segment 1 mapped by the workload *)
  log_size : int;
  sector : int;  (** hardware atomicity unit (default 512) *)
  exhaustive : bool;
      (** check every admissible torn position instead of capping the
          variants per write at [max_torn_per_write] *)
  max_torn_per_write : int;
  truncation_mode : Rvm_core.Types.truncation_mode;
  group_commit : bool;
      (** run the workload with the buffered log tail (the default engine
          configuration) or with per-record write-through *)
  mid_truncation : bool;
      (** disable the inline commit-path truncation trigger so [Step] ops
          leave the background truncator suspended between bounded steps;
          the enumeration then crashes at every truncator step boundary
          (and torn variants of each step's writes) with later commits
          interleaved into the same log *)
}

val default_config : config

val engine_options :
  truncation_mode:Rvm_core.Types.truncation_mode ->
  group_commit:bool ->
  mid_truncation:bool ->
  Rvm_core.Options.t
(** Engine options of an explored run, also used to recover its crash
    images; {!Shard_check} uses them for every shard. [mid_truncation]
    lowers the truncation threshold and turns off the inline trigger. *)

type write_point = {
  event : int;
  dev : string;  (** ["log"] or ["seg"] *)
  off : int;
  len : int;
  variants : int;  (** torn variants enumerated for this write *)
}

type extras = {
  commits : int;
  durable : int;
  write_points : write_point list;  (** one per write event, oldest first *)
}

type outcome = extras Crash_lab.outcome

val run : ?config:config -> Workload.op list -> outcome
(** Execute the workload, enumerate every crash point, and check each
    recovered image. *)

val violates : ?config:config -> Workload.op list -> bool
(** [run] and test for any violation — the predicate the shrinker reruns. *)

val pp_outcome : Format.formatter -> outcome -> unit
