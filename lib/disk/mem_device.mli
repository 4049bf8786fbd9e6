(** In-memory device. Writes are immediately "durable" (sync is a no-op);
    use {!Crash_device} on top when crash semantics matter. *)

val create : ?name:string -> size:int -> unit -> Device.t

val of_bytes : ?name:string -> Bytes.t -> Device.t
(** Device over a private copy of [bytes] — used to mount reconstructed
    crash images. Not registered for {!snapshot}. *)

val snapshot : Device.t -> Bytes.t
(** Copy of the device contents; only valid on devices made by [create]. *)

val live : unit -> int
(** Devices made by [create] and not yet closed: each holds its whole
    image in memory until [close]. *)
