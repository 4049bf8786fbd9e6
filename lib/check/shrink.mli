(** Minimal-counterexample shrinking for violating workloads.

    Greedy delta-debugging over a first-order op list: at each position,
    try the candidate replacements for that op in order, keeping the
    first that still violates, and repeat passes until none applies.
    Deterministic: the result depends only on the input workload, the
    candidates and the [check] predicate. *)

val minimize :
  candidates:('op -> 'op list list) ->
  check:('op list -> bool) ->
  'op list ->
  'op list
(** [minimize ~candidates ~check ops] assumes [check ops = true] (a
    violation reproduces) and returns a local minimum: no candidate
    replacement of any single op preserves the violation. *)

val drop : 'op -> 'op list list
(** Drop the whole op and nothing else — for workloads whose ops are their
    own essence, such as which shards a sharded op touches. *)

val workload : Workload.op -> Workload.op list list
(** Single-log ops: drop the op, drop one of its ranges, or shrink one
    range's length (halving, then to 1). *)
