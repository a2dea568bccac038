(** Bridge from the runtime's event rings to the semantics' replay
    checker: validate that a traced execution conforms to the
    logging/execution discipline of the operational semantics.

    {!Qs_semantics.Replay} checks one event stream against the
    per-processor request-log automaton, but it is only sound when each
    stream contains a single client's events — with several concurrent
    registrations merged, the interleaving of their log watermarks is
    not recoverable and the checker would report phantom violations (or
    miss real ones).  The runtime attributes every SCOOP-level event to
    its issuing registration ({!Scoop.Trace.event.client}, from
    [Registration.rid]); this module partitions a merged trace on
    (processor, registration) before replaying, and {e rejects} streams
    containing unattributed client events instead of guessing.

    Violations are reported with the sink sequence number of the
    offending event ({!Scoop.Trace.event.seq}), so a failure can be
    pinpointed in the ring (and in a Chrome export) directly. *)

type stream = {
  st_proc : int;  (** processor (handler) id *)
  st_client : int;  (** registration id ([Registration.rid]) *)
  st_events : int;  (** SCOOP-level events attributed to this stream *)
}

type violation = {
  v_proc : int;
  v_client : int;
  v_seq : int;  (** sink sequence number of the offending event *)
  v_violation : Qs_semantics.Replay.violation;
}

type report = {
  events : int;  (** SCOOP-level events checked (attributable kinds) *)
  skipped : int;
      (** events with no replay meaning (handler failures, promise
          rejections) — observed but not checked *)
  streams : stream list;  (** the (processor, registration) partitions *)
  violations : violation list;
}

type error =
  | Unattributed of { proc : int; seq : int; kind : Scoop.Trace.kind }
      (** a checkable client event carried no registration id: the trace
          predates attribution, or was recorded outside a registration —
          checking it would require guessing stream membership *)
  | Truncated of { dropped : int }
      (** the sink's rings overwrote [dropped] events: the lost prefix
          can hide violations or fake them, so the trace has no verdict *)

val event_of_kind : Scoop.Trace.kind -> proc:int -> Qs_semantics.Replay.event option
(** The replay meaning of one trace event, if it has one:
    [Reserved -> Reserved], [Call_logged -> Logged],
    [Call_executed -> Executed], [Sync_round_trip]/[Query_round_trip ->
    Synced], [Query_pipelined -> Pipelined], [Sync_elided -> Elided],
    [Request_timeout -> TimedOut], [Request_shed -> Shed],
    [Registration_poisoned -> Poisoned].  [Handler_failed],
    [Promise_rejected] and [Query_shed] have no per-registration log
    meaning and map to [None] (a shed query rejects a rendezvous
    without consuming a logged-call slot; its round-trip completion,
    when present, already maps to [Synced]). *)

val check_events : Scoop.Trace.event list -> (report, error) result
(** Partition the (chronologically ordered) events per (processor,
    registration) and replay each partition through
    {!Qs_semantics.Replay.check_all}.  [Ok] carries the full report —
    including any violations; use {!ok} for a boolean gate. *)

val check_trace : Scoop.Trace.t -> (report, error) result
(** [check_events] over [Scoop.Trace.events].  Read only in quiescence
    (after the traced run).  [Error (Truncated _)] whenever the trace's
    sink dropped events to ring overflow ([Qs_obs.Sink.dropped] > 0). *)

val ok : (report, error) result -> bool
(** A usable gate: the trace was attributable and had no violations. *)

val pp_report : Format.formatter -> report -> unit
val pp_violation : Format.formatter -> violation -> unit
val pp_error : Format.formatter -> error -> unit
