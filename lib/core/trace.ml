(* Detailed runtime tracing — the instrumentation §7 names as future
   work: "a SCOOP-specific instrumentation for the runtime, providing
   detailed measurements for the internal components".

   Since the qs_obs refactor this module is a compatibility view over a
   shared [Qs_obs.Sink.t]: the same per-domain bounded rings that hold
   the scheduler's dispatch/steal events also hold the SCOOP-level
   client and handler events, so one sink captures the whole stack and
   one Chrome-trace export shows every layer.  [record] maps the
   historical event kinds onto sink categories; [events] reconstructs
   the historical [event] records from the sink.

   The old collector was an unbounded cons list whose [events] accessor
   re-reversed the whole list on every call.  The sink's rings are
   bounded (overflow counted, not silent) and the ordering cost is now
   explicit and paid once per read: [Sink.events] sorts by timestamp.

   Kind <-> sink mapping (track = target processor id, arg = issuing
   registration id — the attribution field conformance checking
   partitions on; 0 when the emitter has no registration in hand):
     Reserved            -> instant  client/reserve
     Call_logged         -> instant  client/call_log
     Call_executed d     -> complete core/call_exec     (dur = d)
     Sync_round_trip d   -> complete client/sync        (dur = d)
     Sync_elided         -> instant  client/sync_elided
     Query_round_trip d  -> complete client/query       (dur = d)
     Query_pipelined d   -> complete client/query_async (dur = d)
     Handler_failed      -> instant  core/handler_failure
     Registration_poisoned -> instant client/poisoned
     Promise_rejected    -> instant  client/promise_rejected
     Request_timeout     -> instant  client/timeout
     Request_shed        -> instant  core/shed
     Query_shed          -> instant  core/shed_query
   Complete spans store their *start* time; the historical [at] (time of
   recording) is reconstructed as [ts +. dur]. *)

type kind =
  | Reserved
  | Call_logged
  | Call_executed of float (* seconds spent queued before execution *)
  | Sync_round_trip of float
  | Sync_elided
  | Query_round_trip of float (* packaged query: log -> result *)
  | Query_pipelined of float
      (* pipelined query: issue -> promise fulfilment (closed by the
         handler via the promise's completion callback, so the span
         measures queueing + execution, not the client's force delay) *)
  | Handler_failed (* a handler-side closure raised *)
  | Registration_poisoned (* a failed async call dirtied a registration *)
  | Promise_rejected (* a pipelined query resolved with an exception *)
  | Request_timeout (* a blocking rendezvous was abandoned at its deadline *)
  | Request_shed (* the mailbox shed a logged call ([`Shed_oldest]) *)
  | Query_shed
      (* the mailbox shed a query-flavoured request: the rendezvous is
         rejected with [Overloaded] at the query/await site, but no
         logged-call slot is consumed and the registration stays clean *)

type event = {
  at : float; (* seconds since the trace started *)
  proc : int; (* target processor id *)
  client : int; (* issuing registration id; 0 = unattributed *)
  seq : int; (* global sink record order *)
  kind : kind;
}

type t = { sink : Qs_obs.Sink.t }

let of_sink sink = { sink }
let create () = { sink = Qs_obs.Sink.create () }
let sink t = t.sink
let now t = Qs_obs.Sink.now t.sink

let record t ~proc ?(client = 0) kind =
  let s = t.sink in
  let instant name =
    Qs_obs.Sink.instant s ~cat:"client" ~name ~track:proc ~arg:client ()
  in
  let complete cat name d =
    Qs_obs.Sink.complete s ~cat ~name ~track:proc ~arg:client
      ~ts:(Qs_obs.Sink.now s -. d) ~dur:d ()
  in
  match kind with
  | Reserved -> instant "reserve"
  | Call_logged -> instant "call_log"
  | Call_executed d -> complete "core" "call_exec" d
  | Sync_round_trip d -> complete "client" "sync" d
  | Sync_elided -> instant "sync_elided"
  | Query_round_trip d -> complete "client" "query" d
  | Query_pipelined d -> complete "client" "query_async" d
  | Handler_failed ->
    Qs_obs.Sink.instant s ~cat:"core" ~name:"handler_failure" ~track:proc
      ~arg:client ()
  | Registration_poisoned -> instant "poisoned"
  | Promise_rejected -> instant "promise_rejected"
  | Request_timeout -> instant "timeout"
  | Request_shed ->
    Qs_obs.Sink.instant s ~cat:"core" ~name:"shed" ~track:proc ~arg:client ()
  | Query_shed ->
    Qs_obs.Sink.instant s ~cat:"core" ~name:"shed_query" ~track:proc
      ~arg:client ()

let kind_of (e : Qs_obs.Sink.event) =
  match (e.cat, e.name) with
  | "client", "reserve" -> Some Reserved
  | "client", "call_log" -> Some Call_logged
  | "core", "call_exec" -> Some (Call_executed e.dur)
  | "client", "sync" -> Some (Sync_round_trip e.dur)
  | "client", "sync_elided" -> Some Sync_elided
  | "client", "query" -> Some (Query_round_trip e.dur)
  | "client", "query_async" -> Some (Query_pipelined e.dur)
  | "core", "handler_failure" -> Some Handler_failed
  | "client", "poisoned" -> Some Registration_poisoned
  | "client", "promise_rejected" -> Some Promise_rejected
  | "client", "timeout" -> Some Request_timeout
  | "core", "shed" -> Some Request_shed
  | "core", "shed_query" -> Some Query_shed
  | _ -> None (* other layers' events (sched, remote, ...) *)

let events t =
  Qs_obs.Sink.fold
    (fun acc (e : Qs_obs.Sink.event) ->
      match kind_of e with
      | None -> acc
      | Some kind ->
        ( (e.ts +. e.dur, e.seq),
          {
            at = e.ts +. e.dur;
            proc = e.track;
            client = e.arg;
            seq = e.seq;
            kind;
          } )
        :: acc)
    [] t.sink
  |> List.sort (fun (ka, _) (kb, _) -> compare ka kb)
  |> List.map snd
