(** Separate objects: data owned by a processor, accessible only through a
    separate block that reserves that processor.

    Ownership is checked dynamically on every access
    (@raise Invalid_argument on violation) — the runtime analogue of
    SCOOP's static [separate] typing rule. *)

type 'a t

val create : Processor.t -> 'a -> 'a t
(** [create h v] places [v] on handler [h]. *)

val proc : 'a t -> Processor.t

val apply : Registration.t -> 'a t -> ('a -> unit) -> unit
(** Asynchronous command on the object (executed by its handler). *)

val get : Registration.t -> 'a t -> ('a -> 'b) -> 'b
(** Synchronous query on the object. *)

val set : Registration.t -> 'a t -> 'a -> unit
(** Asynchronously replace the object's value. *)

val read_synced : Registration.t -> 'a t -> 'a
(** Sync with the handler, then return the raw data for direct client-side
    reading.  Safe until the client logs the next asynchronous call on the
    same registration.  This is the access shape produced by the static
    sync-coalescing pass (paper §3.4.2). *)
