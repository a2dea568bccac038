(** Requests exchanged between clients and handlers.

    The runtime counterpart of the statement syntax in paper §2.3, in
    one representation: a single heap block per request carrying the
    work closure, its typed completion and the issue stamps.  The
    constructor selects the completion — an asynchronous [Call] poisons
    its registration through [poison], a blocking [Query] fills the
    client's ivar, a [Pipelined] query fulfils the client's promise.

    [Sync] is the wait/release pair of the (client-executed) query
    protocol; [End] the end-of-registration marker a client appends
    when its separate block closes. *)

type t =
  | Call : {
      run : unit -> unit;
      poison : exn -> Printexc.raw_backtrace -> unit;
          (** the issuing registration's poison completion *)
      reg : int;  (** issuing registration id ([Registration.rid]) *)
      birth : int;  (** ns stamp at client issue *)
      admit : int;  (** ns stamp after backpressure admission *)
    }
      -> t
  | Query : {
      run : unit -> 'a;
      result : 'a Qs_sched.Ivar.t;
      reg : int;
      birth : int;
      admit : int;
    }
      -> t
  | Pipelined : {
      run : unit -> 'a;
      promise : 'a Qs_sched.Promise.t;
      reg : int;
      birth : int;
      admit : int;
    }
      -> t
  | Sync : Qs_sched.Sched.resumer -> t
  | End : t

val reg : t -> int
(** The issuing registration id; [0] for [Sync] and [End]. *)

val pp : Format.formatter -> t -> unit
