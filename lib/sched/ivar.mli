(** Write-once synchronization variable ("future") for fibers.

    The cell resolves exactly once — to a value ({!fill}) or to an
    exception ({!fill_error}).  Any number of fibers may {!read}; the
    resolution wakes them all.  Safe across domains. *)

type 'a t

type 'a outcome = ('a, exn * Printexc.raw_backtrace) result
(** A resolution: the value, or the exception that replaced it together
    with the backtrace captured where it was caught. *)

val create : unit -> 'a t
val create_full : 'a -> 'a t

val fill : 'a t -> 'a -> unit
(** Set the value and wake all readers.
    @raise Invalid_argument if already resolved. *)

val try_fill : 'a t -> 'a -> bool
(** Like {!fill} but returns [false] instead of raising. *)

val fill_error : ?bt:Printexc.raw_backtrace -> 'a t -> exn -> unit
(** Reject the cell: readers re-raise [e] (with [bt], defaulting to the
    most recent backtrace at the call site) instead of receiving a value.
    @raise Invalid_argument if already resolved. *)

val try_fill_error : ?bt:Printexc.raw_backtrace -> 'a t -> exn -> bool
(** Like {!fill_error} but returns [false] instead of raising. *)

val read : ?timeout:float -> 'a t -> 'a
(** Return the value, blocking the current fiber until resolved.
    Re-raises (with its captured backtrace) if the cell was rejected.
    [?timeout] bounds the wait as in {!result}. *)

val result : ?timeout:float -> 'a t -> 'a outcome
(** Like {!read} but returns the outcome instead of re-raising.  With
    [?timeout], raise {!Timer.Timeout} if the cell is still unresolved
    after that many seconds.  The fiber is resumed exactly once either
    way ({!Sched.suspend}); a timed-out reader's subscription stays in
    the cell as a dead no-op waiter until resolution. *)

val peek : 'a t -> 'a option
(** The value if already present; never blocks.  Re-raises if the cell
    is already rejected — a rejected cell must not look forever-pending. *)

val peek_result : 'a t -> 'a outcome option
(** The outcome if already resolved; never blocks, never raises. *)

val is_filled : 'a t -> bool
(** [true] once resolved, whether fulfilled or rejected. *)

val is_rejected : 'a t -> bool

val on_fill : 'a t -> ('a -> unit) -> unit
(** [on_fill t f] runs [f v] once [t] holds [v]: immediately (in the
    caller's context) if already filled, otherwise in the filler's
    context during {!fill}.  Not called on rejection — use {!on_resolve}
    to observe both outcomes.  Callbacks must not block; they share the
    wake-up list with blocked readers.  The substrate of
    {!Promise.on_fulfill}. *)

val on_resolve : 'a t -> ('a outcome -> unit) -> unit
(** Like {!on_fill} but fires on either outcome. *)
