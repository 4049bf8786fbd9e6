(** Crash-point exploration for the recoverable B-tree
    ({!Rvm_pds.Pbtree}).

    The crash model is {!Crash_lab}'s. Each recovered image is judged
    structurally instead of byte-wise: the Rds heap and the tree are
    reattached, both full
    invariant checkers run ({!Rvm_alloc.Rds.check},
    {!Rvm_pds.Pbtree.check}), and the tree's enumerated contents must
    equal some committed snapshot at least as new as the last durable
    point before the crash. The default scripted workload forces splits,
    sibling borrows and merges (minimum degree 2), an aborted structural
    transaction, value replaces, and mid-history truncations, so crash
    points land inside every rebalancing shape the tree has. *)

type config = {
  heap_len : int;
  log_size : int;
  sector : int;
  degree : int;  (** B-tree minimum degree for the scripted tree *)
  exhaustive : bool;
  max_torn_per_write : int;
  group_commit : bool;
}

val default_config : config

type action = Put of string * string | Remove of string

type op =
  | Commit of action list * Rvm_core.Types.commit_mode
  | Abort of action list
  | Flush
  | Truncate

val default_ops : op list

type extras = {
  commits : int;
  durable : int;  (** snapshot index known durable at the end of the run *)
  splits : int;  (** structural coverage of the recorded run *)
  merges : int;
  borrows : int;
}

type outcome = extras Crash_lab.outcome

val run : ?config:config -> ?ops:op list -> unit -> outcome
(** Execute the workload, enumerate every crash point, and check each
    recovered image; an exception escaping reattachment or either
    invariant checker is a violation too. A run whose [splits] or [merges]
    counter is zero did not cover the structural paths and should be
    treated as a test configuration error by callers. *)

val pp_outcome : Format.formatter -> outcome -> unit
