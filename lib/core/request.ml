(* Requests logged by clients in private queues (paper §2.3 syntax).

   One representation: each request is a single heap block carrying the
   work closure, its typed completion and the issue stamps — the OCaml
   analogue of the libffi-packaged call of Fig. 9 (cif + argument block)
   with the completion attached.  The constructor says which completion:

   - [Call]: an asynchronous call.  It has no rendezvous, so a failure
     goes to [poison], the issuing registration's poison completion (one
     preallocated closure per registration, shared by all its calls).
   - [Query]: a blocking packaged query (Fig. 10a); the result, or the
     exception, fills the client's ivar.
   - [Pipelined]: a promise-pipelined query; the result fulfils (or
     rejects) the client's promise.

   The query result type is existential, so the handler routes values
   and failures into the right completion without any closure built
   for the purpose and without coercions.

   [Sync] is the release half of the wait/release pair introduced by
   the modified query rule of §3.2.  [End] is the end-of-private-queue
   marker appended when a separate block closes.

   [reg] is the issuing registration's id (for shed and failure event
   attribution); [birth] and [admit] are ns stamps (Clock.now_ns) taken
   at client issue and after backpressure admission. *)

type t =
  | Call : {
      run : unit -> unit;
      poison : exn -> Printexc.raw_backtrace -> unit;
      reg : int;
      birth : int;
      admit : int;
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

let reg = function
  | Call { reg; _ } -> reg
  | Query { reg; _ } -> reg
  | Pipelined { reg; _ } -> reg
  | Sync _ | End -> 0

let pp ppf = function
  | Call _ -> Format.pp_print_string ppf "call"
  | Query _ -> Format.pp_print_string ppf "query"
  | Pipelined _ -> Format.pp_print_string ppf "pipelined"
  | Sync _ -> Format.pp_print_string ppf "sync"
  | End -> Format.pp_print_string ppf "end"
