(* How long a measured phase runs: for a number of host seconds (the
   benchmark proper) or for a fixed number of operations (the
   determinism self-test, whose counts must not depend on host speed). *)

type t = Seconds of float | Ops of int

(* Operations between two reads of the budget clock. *)
let batch = 32

let over b ~ops ~t_start =
  match b with
  | Seconds s -> Probe.seconds_since t_start >= s
  | Ops n -> ops >= n

(* [ops_per_s] is the median of per-chunk rates, and the closed loops'
   latency percentiles the median of per-chunk percentiles: a run is cut
   into [chunks] slices of host time, so a transient stall of the
   machine moves one slice, not the reported value. *)
let chunks = 20

let chunk_ns = function
  | Seconds s -> int_of_float (s *. 1e9 /. float_of_int chunks)
  | Ops _ -> max_int

let split b k =
  match b with Seconds s -> Seconds (s /. float_of_int k) | Ops n -> Ops (max batch (n / k))

(* Warm-up before the timed phase: always a fixed operation count, so
   the measured stream starts at the same point on every host. *)
let warmup b n = match b with Seconds _ -> Ops n | Ops m -> Ops (min n (m / 4))
