(** Runtime instrumentation counters (paper §7 "future work": detailed
    measurement of internal runtime components).

    One record per runtime; since the qs_obs refactor each field is a
    [Qs_obs.Counter.t] registered by name in the runtime's counter
    registry, so the same counters are visible both through the
    historical {!snapshot}/{!diff} record view and through the generic
    registry view ({!assoc}, used by machine-readable outputs).  Bump a
    counter with [Qs_obs.Counter.incr]/[add] from any fiber. *)

type t = {
  registry : Qs_obs.Counter.registry;
  processors : Qs_obs.Counter.t;
  reservations : Qs_obs.Counter.t;
  multi_reservations : Qs_obs.Counter.t;
  calls : Qs_obs.Counter.t;
  queries : Qs_obs.Counter.t;
  packaged_queries : Qs_obs.Counter.t;
  promises_created : Qs_obs.Counter.t;
      (** pipelined queries issued ({!Registration.query_async}) *)
  promises_fulfilled : Qs_obs.Counter.t;
      (** promise results produced by handler loops *)
  promises_ready : Qs_obs.Counter.t;
      (** promises already resolved at first force — fully overlapped
          round trips (registry name [promises_ready_on_first_poll]) *)
  promises_blocked : Qs_obs.Counter.t;
      (** promises whose first force blocked the client (registry name
          [promises_forced_blocking]) *)
  syncs_sent : Qs_obs.Counter.t;
  syncs_elided : Qs_obs.Counter.t;
  eve_lookups : Qs_obs.Counter.t;
  wait_retries : Qs_obs.Counter.t;
      (** failed wait-condition evaluations (each one parks the waiter
          until a reserved handler announces a change) *)
  handler_wakeups : Qs_obs.Counter.t;
  batched_requests : Qs_obs.Counter.t;
  ends_drained : Qs_obs.Counter.t;
  handler_failures : Qs_obs.Counter.t;
      (** handler-side closure exceptions caught and routed into the
          request's typed completion *)
  poisoned_registrations : Qs_obs.Counter.t;
      (** registrations dirtied by a failed asynchronous call (SCOOP's
          dirty-processor rule) *)
  rejected_promises : Qs_obs.Counter.t;
      (** pipelined query promises resolved with an exception *)
  aborted_requests : Qs_obs.Counter.t;
      (** requests discarded unexecuted by {!Processor.abort} *)
  timer_arms : Qs_obs.Counter.t;
      (** deadline timers armed by the request path (timed queries and
          syncs) — the per-operation cost knob of the timeout ablation *)
  timeouts_fired : Qs_obs.Counter.t;
      (** armed request-path deadlines that expired before fulfilment *)
  deadline_exceeded : Qs_obs.Counter.t;
      (** client operations that raised [Scoop.Timeout] (includes
          wait-condition and reservation deadlines, which bound without
          arming a timer) *)
  shed_requests : Qs_obs.Counter.t;
      (** requests refused at admission ([`Fail]) or shed from the
          backlog ([`Shed_oldest]) by a bounded mailbox *)
  remote_requests : Qs_obs.Counter.t;
      (** calls, queries and syncs shipped over a node connection *)
  remote_replies : Qs_obs.Counter.t;
      (** typed completions received back from a node *)
  remote_failures : Qs_obs.Counter.t;
      (** lost connections and wire-level protocol errors *)
  hist : Qs_obs.Histogram.registry;
      (** latency distributions (ns), one registry per runtime — the
          histogram sibling of [registry] *)
  h_call_local : Qs_obs.Histogram.t;
      (** local asynchronous call: client issue to handler completion *)
  h_query_local : Qs_obs.Histogram.t;
      (** local blocking query (any flavour): issue to result *)
  h_pipelined_local : Qs_obs.Histogram.t;
      (** local pipelined query: issue to promise fulfilment *)
  h_call_remote : Qs_obs.Histogram.t;
      (** remote asynchronous call: issue to wire handoff (fire and
          forget — the reply carries no completion to time against) *)
  h_query_remote : Qs_obs.Histogram.t;
      (** remote blocking round trips (queries {e and} syncs): issue to
          demuxed reply — the distribution that replaced the old summed
          [remote_rtt_ns] counter *)
  h_pipelined_remote : Qs_obs.Histogram.t;
      (** remote pipelined query: issue to reply-driven fulfilment *)
  h_queue_wait : Qs_obs.Histogram.t;
      (** local requests: admission to the start of handler service *)
  h_exec : Qs_obs.Histogram.t;
      (** local requests: handler service start to completion *)
}

val create : unit -> t
val registry : t -> Qs_obs.Counter.registry

val assoc : t -> Qs_obs.Counter.snapshot
(** Name→value snapshot of every registered counter (registration
    order); the machine-readable sibling of {!snapshot}. *)

val histograms : t -> Qs_obs.Histogram.registry

val hist_assoc : t -> Qs_obs.Histogram.snapshot
(** Name→distribution snapshot of every latency histogram
    (registration order), for the bench JSON and trace exports. *)

type snapshot = {
  s_processors : int;
  s_reservations : int;
  s_multi_reservations : int;
  s_calls : int;
  s_queries : int;
  s_packaged_queries : int;
  s_promises_created : int;
  s_promises_fulfilled : int;
  s_promises_ready : int;
  s_promises_blocked : int;
  s_syncs_sent : int;
  s_syncs_elided : int;
  s_eve_lookups : int;
  s_wait_retries : int;
  s_handler_wakeups : int;
  s_batched_requests : int;
  s_ends_drained : int;
  s_handler_failures : int;
  s_poisoned_registrations : int;
  s_rejected_promises : int;
  s_aborted_requests : int;
  s_timer_arms : int;
  s_timeouts_fired : int;
  s_deadline_exceeded : int;
  s_shed_requests : int;
  s_remote_requests : int;
  s_remote_replies : int;
  s_remote_failures : int;
}

val snapshot : t -> snapshot
val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier] is the per-field difference. *)

val mean_batch : snapshot -> float
(** Mean requests delivered per handler wakeup
    ([s_batched_requests /. s_handler_wakeups]; [0.] before any wakeup).
    1.0 is the old one-request-per-park behaviour; larger means the
    batched drain is amortizing park/unpark transitions. *)

val overlap_ratio : snapshot -> float
(** Fraction of forced promises that were already resolved when first
    observed ([s_promises_ready / (s_promises_ready +
    s_promises_blocked)]; [0.] before any force).  1.0 means every
    pipelined round trip was fully overlapped with other work. *)

val pp_snapshot : Format.formatter -> snapshot -> unit
