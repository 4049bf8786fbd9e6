(** The crash model shared by every crash explorer.

    A world — the single-log engine ({!Explorer}), the sharded engine
    ({!Shard_check}), the early-lock-release server ({!Elr_check}), the
    recoverable B-tree ({!Btree_check}) — runs its workload against memory
    devices {!attach}ed to one {!lab}. This module then re-crashes the
    recorded run at every crash point, rebuilds the durable device images,
    hands them to the world's [recover], and asks the world's [judge]
    whether the recovered state is one the contract allows.

    {b Crash model.} Every attached device shares one recorder, so a crash
    is a moment in the {e global} write/sync order — including the
    boundaries between one device's write and another's. Writes reach the
    platter in issue order (no reordering): a crash preserves a prefix of
    the event sequence plus at most a torn fragment of the next write. A
    crash point is therefore either a boundary ([events + 1] of them,
    from the freshly formatted state to the whole run) or a torn variant
    of one write.

    {b Sector atomicity.} A write contained in a single aligned hardware
    sector is atomic — the contract the 512-byte status block is designed
    around — while a larger write may tear at any byte: every interior
    sector boundary, topped up with evenly spaced interior positions
    (strictly conservative: covers sector boundaries and mid-sector power
    loss). See {!torn_positions}.

    An exception escaping [recover] is itself a violation: recovery must
    never crash on a reachable disk image. Each violation carries the
    flight-recorder tail of the recorded run at its crash point. *)

type crash_point = {
  upto : int;  (** events fully on disk *)
  torn : int option;  (** bytes kept of event [upto], if torn *)
}

type violation = {
  crash : crash_point;
  reason : string;
  tail : Rvm_obs.Registry.span_event list;
      (** flight-recorder tail: the last spans (up to 16) the recorded run
          closed before the crashed device event was issued — what the
          system was doing when the injected crash hit *)
}

type 'x outcome = {
  events : int;
  writes : int;
  syncs : int;
  boundaries : int;  (** crash points at event boundaries (events + 1) *)
  torn_variants : int;
  recoveries : int;  (** total images reconstructed and recovered *)
  violations : violation list;
  extra : 'x;  (** the world's own outcome fields *)
}

(** {1 Recording} *)

type lab
(** One recorder over every device of a run, plus the flight recorder. *)

type dev
(** One recorded device. *)

val create : unit -> lab

val obs : lab -> Rvm_obs.Registry.t
(** The registry to run the workload with: its retained spans become the
    tails of violations. *)

val attach : lab -> Rvm_disk.Device.t -> dev
(** Start recording a device. Its contents now are its image at crash
    point zero, so attach after formatting. *)

val device : dev -> Rvm_disk.Device.t
(** The pass-through device to hand the code under test. *)

val event_count : lab -> int
(** Device events recorded so far: the boundary a durability checkpoint
    taken now names. *)

(** {1 Exploration} *)

val torn_positions :
  sector:int -> exhaustive:bool -> max_per_write:int -> off:int -> len:int ->
  int list
(** Admissible torn prefixes (bytes kept, exclusive of 0 and [len]) for a
    write of [len] bytes at device offset [off]. Empty when the write fits
    in one aligned sector (atomic). Otherwise every interior sector
    boundary, topped up with evenly spaced interior positions so that any
    tearable write of at least 5 bytes gets at least 4 variants; capped at
    [max_per_write] (evenly subsampled) unless [exhaustive]. *)

val explore :
  lab ->
  sector:int ->
  exhaustive:bool ->
  max_torn_per_write:int ->
  ?on_write:(event:int -> dev -> off:int -> len:int -> variants:int -> unit) ->
  recover:((dev -> Rvm_disk.Device.t) -> 'r) ->
  judge:(crash_point -> 'r -> (unit, string) result) ->
  unit ->
  unit outcome
(** Enumerate every crash point of the recorded run: the boundary before
    the first event, then for each event its torn variants (writes only)
    and the boundary after it. At each point [recover] recovers the
    crash images, which its argument mounts as memory devices; [judge]
    checks the result. [on_write] sees each write event with its count
    of torn variants. Raises [Invalid_argument] unless [sector] is positive. *)

(** {1 Reporting} *)

val pp_crash_point : Format.formatter -> crash_point -> unit
val pp_violation : Format.formatter -> violation -> unit

val pp_outcome :
  (Format.formatter -> 'x -> unit) -> Format.formatter -> 'x outcome -> unit
(** Counts (with the world's extras after the trace counts), then the
    verdict: the first five violations with their tails. *)
