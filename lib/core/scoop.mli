(** SCOOP/Qs: an efficient runtime for the SCOOP object-oriented
    concurrency model (West, Nanz, Meyer — PPoPP 2015).

    This is the curated client surface.  Entry points: {!run} (or
    {!Runtime.run}), {!Runtime.processor}, {!Runtime.separate}, then
    {!Registration} and {!Shared} operations inside the block; pipelined
    queries return a {!Promise}.  Runtime internals that client code
    should not touch — the per-runtime context, the request
    representation, the EVE shadow bookkeeping — are tucked under
    {!Internal} and are not part of the supported API. *)

module Config = Config
(** Runtime configuration: optimization presets and request-path knobs. *)

module Stats = Stats
(** Instrumentation counters, snapshots and derived ratios. *)

module Promise = Qs_sched.Promise
(** Deferred query results ({!Registration.query_async}): force with
    {!Promise.await}, poll with {!Promise.try_read}, combine with
    {!Promise.both}/{!Promise.all}. *)

module Processor = Processor
(** SCOOP processors ("handlers"): opaque handles used to place shared
    objects and open separate blocks. *)

module Registration = Registration
(** Client-side handle on one reserved handler inside a separate block:
    {!Registration.call}, {!Registration.query},
    {!Registration.query_async}, {!Registration.sync}. *)

module Separate = Separate
(** Reservation internals behind {!Runtime.separate} and friends (the
    arity-named [one]/[two]/[many]/[when_]/[many_when] entry points).
    Client code normally goes through {!Runtime}, which supplies the
    context. *)

module Runtime = Runtime
(** Runtime lifecycle: {!Runtime.run}, {!Runtime.processor}, the
    [separate*] block combinators, stats/trace access. *)

module Shared = Shared
(** Handler-owned objects with ownership-checked access. *)

module Trace = Trace
(** Detailed event tracing over the shared observability sink. *)

module Remote = Remote
(** Distributed runtime surface: {!Remote.listen} hosts handlers behind
    the socket transport (the node side); {!Remote.connect} builds the
    client configuration whose processors are remote proxies.  The same
    workload runs unmodified against an in-process or a remote endpoint
    — shipped closures execute against the {e node's} module-level
    globals (same binary both sides, [Marshal.Closures]). *)

exception Handler_failure of int * exn
(** A handler is {e dirty} for this client (SCOOP's dirty-processor
    rule): an asynchronous call logged through the registration raised
    on the handler, and the failure is re-surfacing on the client — at
    the next {!Registration} operation, at a sync point, or at the
    separate block's exit.  Carries the processor id and the original
    exception.  (Same exception as {!Registration.Handler_failure}.) *)

exception Timeout
(** A deadline expired: a blocking query, sync, promise force,
    reservation or wait condition given a [?timeout] (or running under
    the configuration's [default_deadline]) did not complete in time.
    The operation is abandoned {e without} poisoning the registration —
    the handler still serves what was logged, and the handle stays
    usable.  (Same exception as [Qs_sched.Timer.Timeout].) *)

exception Overloaded of int
(** A bounded mailbox ([Config.bound] > 0) refused or shed a request on
    the processor with that id: raised at admission under the [`Fail]
    overflow policy, and delivered as the failure completion — poisoning
    the registration like any failed call — when [`Shed_oldest] sheds a
    logged request.  (Same exception as {!Processor.Overloaded}.) *)

exception Remote_error of string
(** A handler-side exception crossing a node connection: exception
    identity does not survive marshalling, so the node ships the
    original's [Printexc.to_string] rendering and the client re-raises
    this.  A remote query whose producer raised re-raises it directly;
    a remote {e call} that raised poisons the registration, surfacing as
    [Handler_failure (id, Remote_error msg)]. *)

exception Connection_lost of string
(** The connection to the named node died: every pending completion on
    it fails with this, and every open registration on the connection
    is poisoned with it, so a waiting client gets a typed failure, never
    a hang.  A blocking query or sync then raises
    [Handler_failure (id, Connection_lost _)]; a forced promise raises
    [Connection_lost]. *)

val run :
  ?domains:int ->
  ?config:Config.t ->
  ?grace:float ->
  ?obs:Qs_obs.Sink.t ->
  ?on_counters:(Qs_sched.Sched.counters -> unit) ->
  (Runtime.t -> 'a) ->
  'a
(** Alias of {!Runtime.run}, the usual entry point. *)

(** {1 Internals}

    Not part of the supported surface: exposed for the runtime's own
    tests and benchmarks.  No stability guarantees. *)

module Internal : sig
  module Ctx = Ctx
  (** Per-runtime wiring (config, stats, trace sink, EVE table). *)

  module Eve = Eve
  (** EVE handler-table simulation (paper §4.5). *)

  module Request = Request
  (** The client→handler request representation. *)

  module Socket_queue = Qs_remote.Socket_queue
  (** The framed socket transport under the distributed runtime
      (re-exported from [Qs_remote]; use {!Remote} for the supported
      distributed surface). *)

  module Remote_proto = Remote_proto
  (** Wire message types and the handshake guard. *)

  module Remote_client = Remote_client
  (** Per-connection demultiplexer and the enqueue of remote
      registrations. *)

  module Node = Node
  (** The node's accept loop and serve fibers (behind {!Remote.listen}). *)
end
