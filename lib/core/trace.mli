(** Detailed runtime tracing (paper §7's "SCOOP-specific instrumentation"):
    timestamped client-side events with queueing and round-trip latencies,
    one event per step of the request protocol, which conformance
    checking replays against the semantics.  Latency distributions live
    in the histograms ([Stats.hist_assoc]), not here.

    A view over a shared {!Qs_obs.Sink.t}: SCOOP-level events land in the
    same per-domain bounded rings as scheduler events, so one sink — and
    one Chrome-trace export — covers the whole stack.  Enable with
    [Config.with_trace true] (or pass your own sink as [~obs]); retrieve
    via {!Runtime.trace}. *)

type kind =
  | Reserved
  | Call_logged
  | Call_executed of float
      (** seconds the call waited in the private queue before executing *)
  | Sync_round_trip of float
  | Sync_elided
  | Query_round_trip of float  (** packaged-query log→result time *)
  | Query_pipelined of float
      (** pipelined-query issue→fulfilment time (handler-side; excludes
          any delay before the client forces the promise) *)
  | Handler_failed
      (** a handler-side closure raised; the exception was routed into
          the request's typed completion *)
  | Registration_poisoned
      (** a failed asynchronous call dirtied its registration (SCOOP's
          dirty-processor rule) *)
  | Promise_rejected  (** a pipelined query resolved with an exception *)
  | Request_timeout
      (** a blocking rendezvous (sync, query, reservation retry) was
          abandoned at its deadline; the request itself stays logged *)
  | Request_shed
      (** the mailbox shed a logged-but-unexecuted call under the
          [`Shed_oldest] overflow policy, poisoning the issuing
          registration *)
  | Query_shed
      (** the mailbox shed a query-flavoured request under
          [`Shed_oldest]: the rendezvous is rejected with [Overloaded]
          at the query/await site, but no logged-call slot is consumed
          and the registration is not poisoned *)

type event = {
  at : float;  (** seconds since the trace started *)
  proc : int;
  client : int;
      (** issuing registration id ([Registration.rid]) — the attribution
          conformance checking partitions on; [0] when the emitting code
          path had no registration in hand (scheduler- or handler-global
          events) *)
  seq : int;  (** global sink record order, for pinpointing ring slots *)
  kind : kind;
}

type t

val create : unit -> t
(** Fresh trace over a fresh private sink. *)

val of_sink : Qs_obs.Sink.t -> t
(** View an existing sink as a trace; events recorded through either
    interface share the sink's rings. *)

val sink : t -> Qs_obs.Sink.t

val now : t -> float

val record : t -> proc:int -> ?client:int -> kind -> unit
(** [client] (default [0] = unattributed) is the issuing registration's
    id, stored in the sink event's [arg] field. *)

val events : t -> event list
(** All retained SCOOP-level events, oldest first (sink events from
    other layers are filtered out).  The chronological sort is paid
    here, once per call — not hidden in the recording path.  Read only
    in quiescence; under ring overflow the oldest events are gone (the
    loss is counted by [Qs_obs.Sink.dropped], never silent). *)
