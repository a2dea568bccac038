(** Separate blocks: reserve handlers, run a body with registrations, and
    release (paper §2.1, §2.4, §3.2–3.3).

    These functions are the internals behind {!Runtime.separate} and
    friends, which supply the context.  Named by arity: {!one}, {!two},
    {!many}, plus the wait-condition variants {!when_} and {!many_when}.

    Every block re-surfaces poison at exit (SCOOP's dirty-processor
    rule): if a registration was dirtied by a failed asynchronous call,
    the block raises {!Registration.Handler_failure} after the body has
    completed normally and the handlers are released.  A body that
    raises on its own keeps its exception — the poison check never runs
    inside the release path.

    [?timeout] bounds the {e blocking} part of reservation — handler-lock
    acquisition in lock mode, and for the wait-condition variants the
    whole retry loop (the deadline is absolute, fixed at entry).
    Queue-of-queues reservation is one asynchronous enqueue and never
    waits, so plain blocks ignore the deadline there.  At the deadline
    the block raises {!Qs_sched.Timer.Timeout} ([Scoop.Timeout]) with no
    handler left reserved. *)

val one : ?timeout:float -> Ctx.t -> Processor.t -> (Registration.t -> 'a) -> 'a
(** Single-handler separate block (the optimized case of Fig. 8). *)

val two :
  ?timeout:float -> Ctx.t -> Processor.t -> Processor.t ->
  (Registration.t -> Registration.t -> 'a) -> 'a
(** Two-handler atomic reservation (Fig. 11), with a dedicated pairwise
    entry path — the registrations are passed as two typed arguments, not
    destructured from a list.
    @raise Invalid_argument if both arguments are the same processor.
    @raise Remote_proto.Remote_error if either processor is a remote
    proxy (checked first: multi-reservation is a local protocol). *)

val many :
  ?timeout:float -> Ctx.t -> Processor.t list -> (Registration.t list -> 'a) -> 'a
(** Atomic multi-handler reservation; registrations are returned in the
    same order as the argument processors.
    @raise Invalid_argument if a processor appears twice.
    @raise Remote_proto.Remote_error if any processor is a remote proxy
    (checked before any queue insertion or lock acquisition, so a
    rejected mixed reservation leaves nothing reserved). *)

val when_ :
  ?timeout:float ->
  Ctx.t ->
  Processor.t ->
  pred:(Registration.t -> bool) ->
  (Registration.t -> 'a) ->
  'a
(** Separate block with a wait condition: reserve, evaluate [pred]; when
    it fails, release and park until the handler ends another client's
    registration (or stops), then retry.  [pred] and the body run under
    the same registration, so the condition still holds when the body
    starts.  [pred] must be a side-effect-free read of the handler's
    state: nothing else re-evaluates it.  A wait on a remote processor
    polls with fiber-level pauses instead of parking.
    @raise Processor.Aborted if the handler stops while the wait is
    parked. *)

val many_when :
  ?timeout:float ->
  Ctx.t ->
  Processor.t list ->
  pred:(Registration.t list -> bool) ->
  (Registration.t list -> 'a) ->
  'a
(** {!when_} over several handlers reserved atomically: a failed
    condition parks until {e any} of them ends another client's
    registration. *)

(**/**)

val enter_one : ?deadline:float -> Ctx.t -> Processor.t -> Registration.t
(** Reserve one handler without a scoped body — internal; the node's
    serve loop holds registrations open across many incoming wire
    messages, so its block structure cannot be a single OCaml scope.
    Pair with {!exit_one}. *)

val exit_one : Ctx.t -> Registration.t -> unit
(** Close a registration obtained from {!enter_one} (logs End, releases
    the handler lock in lock mode).  Does not re-surface poison — callers
    check {!Registration.poisoned} themselves. *)
